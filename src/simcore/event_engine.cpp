#include "simcore/event_engine.h"

#include <algorithm>
#include <cassert>

namespace numaio::sim {

namespace {
// std::push_heap/pop_heap build a max-heap; invert the order for a min-heap.
struct Later {
  bool operator()(const EventEngine::Event& a,
                  const EventEngine::Event& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.phase != b.phase) return a.phase > b.phase;
    return a.seq > b.seq;
  }
};
}  // namespace

void EventEngine::schedule(Ns at, std::uint8_t phase, std::uint8_t kind,
                           int id, std::uint64_t gen) {
  assert(at >= now_ && "cannot schedule into the past");
  heap_.push_back(Event{at, next_seq_++, phase, kind, id, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::optional<EventEngine::Event> EventEngine::pop() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = std::max(now_, ev.at);
  return ev;
}

}  // namespace numaio::sim
