#include "obs/trace.h"

#include <chrono>
#include <ostream>

#include "obs/json.h"

namespace numaio::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CSV field quoting: always quoted, inner quotes doubled, so commas and
/// newlines in details cannot shear a row.
void csv_quote(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// A one-character field (kind, dir): bare, and quoted only when the
/// character would shear the row, so ordinary rows keep their bytes.
void csv_char(std::ostream& out, char c) {
  if (c == ',' || c == '"' || c == '\r' || c == '\n') {
    csv_quote(out, {&c, 1});
  } else {
    out << c;
  }
}

}  // namespace

void JsonlSink::write(const Event& e) {
  out_ << "{\"id\":" << e.id << ",\"span\":" << e.span
       << ",\"parent\":" << e.parent << ",\"kind\":";
  json::write_string(out_, {&e.kind, 1});
  out_ << ",\"name\":";
  json::write_string(out_, e.name);
  out_ << ",\"node_a\":" << e.node_a << ",\"node_b\":" << e.node_b
       << ",\"dir\":";
  json::write_string(out_, {&e.dir, 1});
  out_ << ",\"bytes\":" << e.bytes << ",\"t\":";
  json::write_number(out_, e.t_sim);
  out_ << ",\"outcome\":";
  json::write_string(out_, e.outcome);
  out_ << ",\"detail\":";
  json::write_string(out_, e.detail);
  // Deterministic records (wall_us < 0) omit the one nondeterministic
  // field so same-seed trace files compare byte-equal.
  if (e.wall_us >= 0.0) {
    out_ << ",\"wall_us\":";
    json::write_number(out_, e.wall_us);
  }
  out_ << "}\n";
}

void CsvSink::write(const Event& e) {
  if (!header_written_) {
    out_ << "id,span,parent,kind,name,node_a,node_b,dir,bytes,t,outcome,"
            "detail,wall_us\n";
    header_written_ = true;
  }
  out_ << e.id << ',' << e.span << ',' << e.parent << ',';
  csv_char(out_, e.kind);
  out_ << ',';
  csv_quote(out_, e.name);
  out_ << ',' << e.node_a << ',' << e.node_b << ',';
  csv_char(out_, e.dir);
  out_ << ',' << e.bytes << ',';
  json::write_number(out_, e.t_sim);
  out_ << ',';
  csv_quote(out_, e.outcome);
  out_ << ',';
  csv_quote(out_, e.detail);
  out_ << ',';
  // Empty when deterministic.
  if (e.wall_us >= 0.0) json::write_number(out_, e.wall_us);
  out_ << '\n';
}

void TraceRecorder::set_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr && !deterministic_ && epoch_ns_ < 0) {
    epoch_ns_ = steady_ns();
  }
}

EventId TraceRecorder::emit(char kind, std::string_view name, SpanId span,
                            EventId parent, std::string_view outcome,
                            const EventFields& fields) {
  Event e;
  e.id = next_id_++;
  e.span = span == 0 && kind == 'B' ? e.id : span;
  e.parent = parent;
  e.kind = kind;
  e.name.assign(name);
  e.node_a = fields.node_a;
  e.node_b = fields.node_b;
  e.dir = fields.dir;
  e.bytes = fields.bytes;
  e.t_sim = fields.t_sim;
  e.outcome.assign(outcome);
  e.detail.assign(fields.detail);
  if (deterministic_) {
    e.wall_us = -1.0;
  } else {
    if (epoch_ns_ < 0) epoch_ns_ = steady_ns();  // deterministic-then-not
    e.wall_us = static_cast<double>(steady_ns() - epoch_ns_) / 1000.0;
  }
  sink_->write(e);
  return e.id;
}

SpanId TraceRecorder::begin_span(std::string_view name, SpanId parent,
                                 const EventFields& fields) {
  if (sink_ == nullptr) return 0;
  return emit('B', name, 0, parent, {}, fields);
}

void TraceRecorder::end_span(SpanId span, std::string_view outcome,
                             const EventFields& fields) {
  if (sink_ == nullptr || span == 0) return;
  emit('E', {}, span, 0, outcome, fields);
}

EventId TraceRecorder::event(std::string_view name, SpanId span,
                             EventId cause, std::string_view outcome,
                             const EventFields& fields) {
  if (sink_ == nullptr) return 0;
  return emit('I', name, span, cause, outcome, fields);
}

}  // namespace numaio::obs
