#include "obs/stream.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"

namespace numaio::obs {

// JSONL parse-back: the object layout JsonlSink writes, one record per
// line, keys accepted in any order so hand-edited fixtures also load.
Event parse_trace_line(std::string_view line, int line_no) {
  json::Cursor cur(line, "trace line", line_no);
  Event e;
  e.wall_us = -1.0;  // deterministic traces omit the field
  const auto one_char = [&cur](const char* what) {
    const std::string_view v = cur.string();
    if (v.size() != 1) cur.fail(std::string(what) + " must be one character");
    return v[0];
  };
  cur.object([&](std::string_view key) {
    if (key == "id") {
      e.id = cur.integer<EventId>();
    } else if (key == "span") {
      e.span = cur.integer<SpanId>();
    } else if (key == "parent") {
      e.parent = cur.integer<EventId>();
    } else if (key == "kind") {
      e.kind = one_char("kind");
    } else if (key == "name") {
      e.name = cur.string();
    } else if (key == "node_a") {
      e.node_a = cur.integer<int>();
    } else if (key == "node_b") {
      e.node_b = cur.integer<int>();
    } else if (key == "dir") {
      e.dir = one_char("dir");
    } else if (key == "bytes") {
      e.bytes = cur.integer<long long>();
    } else if (key == "t") {
      e.t_sim = cur.number();
    } else if (key == "outcome") {
      e.outcome = cur.string();
    } else if (key == "detail") {
      e.detail = cur.string();
    } else if (key == "wall_us") {
      e.wall_us = cur.number();
    } else {
      cur.fail("unknown field '" + std::string(key) + "'");
    }
  });
  cur.end();
  if (e.id == 0) cur.fail("record without an id");
  return e;
}

void JsonlFileSource::stream(TraceVisitor& visitor) {
  std::ifstream in(path_);
  if (!in) {
    throw std::runtime_error("cannot open trace file '" + path_ + "'");
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    visitor.record(parse_trace_line(line, line_no));
  }
}

void JsonlTextSource::stream(TraceVisitor& visitor) {
  std::size_t start = 0;
  int line_no = 0;
  while (start < text_.size()) {
    std::size_t end = text_.find('\n', start);
    if (end == std::string::npos) end = text_.size();
    ++line_no;
    const std::string_view line(text_.data() + start, end - start);
    if (!line.empty()) visitor.record(parse_trace_line(line, line_no));
    start = end + 1;
  }
}

// ---------------------------------------------------------------------
// Synthetic workload generator.

void SyntheticTraceSource::stream(TraceVisitor& visitor) {
  if (config_.depth > 1) {
    stream_deep(visitor);
    return;
  }
  const std::uint64_t total = std::max<std::uint64_t>(config_.records, 8);
  const std::size_t window =
      static_cast<std::size_t>(std::max(config_.concurrent_streams, 1));
  const int nodes = std::max(config_.nodes, 2);

  // Inline xorshift64: the obs layer depends only on the standard
  // library, and a fixed recurrence keeps every pass bit-identical.
  std::uint64_t state =
      config_.seed != 0 ? config_.seed : 0x9e3779b97f4a7c15ull;
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  EventId next_id = 1;
  double t = 0.0;
  std::uint64_t emitted = 0;
  const auto emit = [&](Event&& e) {
    e.wall_us = -1.0;  // deterministic shape, like --trace-deterministic
    ++emitted;
    visitor.record(e);
  };

  struct OpenStream {
    EventId id = 0;
  };
  std::deque<OpenStream> open;
  EventId last_fault = 0;

  Event root;
  root.id = next_id++;
  root.span = root.id;
  root.kind = 'B';
  root.name = "synth.run";
  root.t_sim = t;
  const EventId root_id = root.id;
  emit(std::move(root));

  const auto begin_stream = [&]() {
    Event b;
    b.id = next_id++;
    b.span = b.id;
    b.parent = root_id;
    b.kind = 'B';
    b.name = "synth.stream";
    b.node_a = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    b.node_b = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    b.dir = (rng() & 1) != 0 ? 'w' : 'r';
    b.t_sim = t;
    b.detail = "task " + std::to_string(b.id % 7);
    open.push_back({b.id});
    emit(std::move(b));
  };

  const auto close_oldest = [&]() {
    const OpenStream s = open.front();
    open.pop_front();
    Event e;
    e.id = next_id++;
    e.span = s.id;
    e.kind = 'E';
    e.t_sim = t;
    e.bytes = static_cast<long long>(1 + rng() % 64) * (1 << 20);
    const bool aborted = last_fault != 0 && rng() % 16 == 0;
    e.outcome = aborted ? "aborted" : "ok";
    emit(std::move(e));
  };

  while (true) {
    // Budget = records still available beyond the one E per open span
    // plus the root's E that the drain below must emit.
    const std::uint64_t committed = emitted + open.size() + 1;
    if (committed >= total) break;
    const std::uint64_t budget = total - committed;
    t += 1.0 + static_cast<double>(rng() % 997);
    const std::uint64_t roll = rng() % 10;
    if (open.size() < window && budget >= 2 && (open.empty() || roll < 3)) {
      begin_stream();
    } else if (roll < 5 && !open.empty()) {
      close_oldest();
    } else if (roll == 5) {
      Event f;
      f.id = next_id++;
      f.span = root_id;
      f.kind = 'I';
      f.name = "fault.transition";
      f.outcome = "degraded";
      f.detail = "link " + std::to_string(rng() % 4) + "-" +
                 std::to_string(4 + rng() % 4);
      f.t_sim = t;
      last_fault = f.id;
      emit(std::move(f));
    } else {
      Event i;
      i.id = next_id++;
      i.span = open.empty()
                   ? root_id
                   : open[static_cast<std::size_t>(rng() % open.size())].id;
      i.kind = 'I';
      i.t_sim = t;
      if (last_fault != 0 && roll >= 8) {
        i.name = "synth.retry";
        i.outcome = "retry";
        i.parent = last_fault;
      } else {
        i.name = "synth.attempt";
        i.outcome = "launched";
      }
      emit(std::move(i));
    }
  }

  while (!open.empty()) {
    t += 1.0 + static_cast<double>(rng() % 997);
    close_oldest();
  }
  t += 1.0 + static_cast<double>(rng() % 997);
  Event end;
  end.id = next_id++;
  end.span = root_id;
  end.kind = 'E';
  end.outcome = "ok";
  end.t_sim = t;
  emit(std::move(end));
}

// Deep-chain shape (config_.depth > 1): under one root, consecutive
// blocks of `depth` strictly nested spans — synth.d1;synth.d2;...;
// synth.leafK, with K cycling over `fanout` — each block fully closed
// (LIFO) before the next opens, instants padding the tail so the record
// count lands exactly on config_.records. The folded-stack stress
// fixture: 10^6 records fold into `fanout` deep stacks plus their
// prefixes while never holding more than depth + 1 open spans.
void SyntheticTraceSource::stream_deep(TraceVisitor& visitor) {
  const std::uint64_t total = std::max<std::uint64_t>(config_.records, 8);
  const std::uint64_t depth =
      static_cast<std::uint64_t>(std::max(config_.depth, 2));
  const std::uint64_t fanout =
      static_cast<std::uint64_t>(std::max(config_.fanout, 1));
  const int nodes = std::max(config_.nodes, 2);

  std::uint64_t state =
      config_.seed != 0 ? config_.seed : 0x9e3779b97f4a7c15ull;
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  EventId next_id = 1;
  double t = 0.0;
  std::uint64_t emitted = 0;
  const auto emit = [&](Event&& e) {
    e.wall_us = -1.0;
    ++emitted;
    visitor.record(e);
  };
  const auto advance = [&] {
    t += 1.0 + static_cast<double>(rng() % 97);
  };

  Event root;
  root.id = next_id++;
  root.span = root.id;
  root.kind = 'B';
  root.name = "synth.run";
  root.t_sim = t;
  const EventId root_id = root.id;
  emit(std::move(root));

  // One block = depth begins + one instant + depth ends.
  const std::uint64_t block_records = 2 * depth + 1;
  std::uint64_t block = 0;
  std::vector<EventId> chain;
  chain.reserve(depth);
  while (emitted + block_records + 1 <= total) {
    chain.clear();
    EventId parent = root_id;
    for (std::uint64_t level = 0; level < depth; ++level) {
      advance();
      Event b;
      b.id = next_id++;
      b.span = b.id;
      b.parent = parent;
      b.kind = 'B';
      b.name = level + 1 == depth
                   ? "synth.leaf" + std::to_string(block % fanout)
                   : "synth.d" + std::to_string(level + 1);
      if (level + 1 == depth) {
        b.node_a =
            static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
        b.node_b =
            static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
        b.dir = (rng() & 1) != 0 ? 'w' : 'r';
      }
      b.t_sim = t;
      parent = b.id;
      chain.push_back(b.id);
      emit(std::move(b));
    }
    advance();
    Event i;
    i.id = next_id++;
    i.span = chain.back();
    i.kind = 'I';
    i.name = "synth.attempt";
    i.outcome = "launched";
    i.t_sim = t;
    emit(std::move(i));
    while (!chain.empty()) {
      advance();
      Event e;
      e.id = next_id++;
      e.span = chain.back();
      e.kind = 'E';
      e.outcome = "ok";
      e.t_sim = t;
      if (chain.size() == depth) {
        e.bytes = static_cast<long long>(1 + rng() % 64) * (1 << 20);
      }
      chain.pop_back();
      emit(std::move(e));
    }
    ++block;
  }

  // Pad to the exact record count (minus the root's end) with instants.
  while (emitted + 1 < total) {
    advance();
    Event i;
    i.id = next_id++;
    i.span = root_id;
    i.kind = 'I';
    i.name = "synth.attempt";
    i.outcome = "launched";
    i.t_sim = t;
    emit(std::move(i));
  }

  advance();
  Event end;
  end.id = next_id++;
  end.span = root_id;
  end.kind = 'E';
  end.outcome = "ok";
  end.t_sim = t;
  emit(std::move(end));
}

}  // namespace numaio::obs
