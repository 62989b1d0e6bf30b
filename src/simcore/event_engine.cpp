#include "simcore/event_engine.h"

#include <algorithm>
#include <cassert>

namespace numaio::sim {

namespace {
bool before(const EventEngine::Event& a, const EventEngine::Event& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.phase != b.phase) return a.phase < b.phase;
  return a.seq < b.seq;
}

// std::push_heap/pop_heap build a max-heap; invert the order for a min-heap.
struct Later {
  bool operator()(const EventEngine::Event& a,
                  const EventEngine::Event& b) const {
    return before(b, a);
  }
};
}  // namespace

EventEngine::EventEngine(std::initializer_list<std::uint8_t> line_kinds) {
  lines_.reserve(line_kinds.size());
  for (const std::uint8_t kind : line_kinds) lines_.push_back(Line{kind, {}});
}

void EventEngine::schedule(Ns at, std::uint8_t phase, std::uint8_t kind,
                           int id, std::uint64_t gen) {
  assert(at >= now_ && "cannot schedule into the past");
  const Event ev{at, next_seq_++, phase, kind, id, gen};
  for (Line& line : lines_) {
    if (line.kind != kind) continue;
    if (line.events.empty() || !before(ev, line.events.back())) {
      line.events.push_back(ev);
      return;
    }
    break;
  }
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  heap_peak_ = std::max(heap_peak_, heap_.size());
}

const EventEngine::Event* EventEngine::peek(std::size_t* line) const {
  const Event* best = heap_.empty() ? nullptr : &heap_.front();
  std::size_t best_line = lines_.size();
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const std::deque<Event>& events = lines_[i].events;
    if (!events.empty() && (best == nullptr || before(events.front(), *best))) {
      best = &events.front();
      best_line = i;
    }
  }
  if (line != nullptr) *line = best_line;
  return best;
}

std::optional<EventEngine::Event> EventEngine::pop() {
  std::size_t line = 0;
  const Event* next = peek(&line);
  if (next == nullptr) return std::nullopt;
  const Event ev = *next;
  if (line < lines_.size()) {
    lines_[line].events.pop_front();
    ++line_pops_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    ++heap_pops_;
  }
  now_ = std::max(now_, ev.at);
  return ev;
}

}  // namespace numaio::sim
