#include "simcore/event_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace numaio::sim {

namespace {
// std::push_heap/pop_heap build a max-heap; invert the order for a min-heap.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};
}  // namespace

EventEngine::EventEngine(int num_lanes)
    : lanes_(static_cast<std::size_t>(std::max(1, num_lanes))) {}

void EventEngine::set_lane_handler(LaneHandler handler) {
  lane_handler_ = std::move(handler);
}

void EventEngine::set_merge_hook(MergeHook hook) {
  merge_hook_ = std::move(hook);
}

void EventEngine::schedule_at(Ns at, Callback fn) {
  assert(!in_lane_phase_ && "lane handlers may not schedule control events");
  assert(at >= now_ && "cannot schedule into the past");
  control_.push_back(ControlEvent{at, next_control_seq_++, std::move(fn)});
  std::push_heap(control_.begin(), control_.end(), Later{});
}

void EventEngine::schedule_in(Ns delay, Callback fn) {
  assert(delay >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

void EventEngine::schedule_lane(int lane, Ns at, int kind, int a, int b,
                                std::uint64_t gen) {
  assert(lane >= 0 && lane < num_lanes());
  assert(at >= now_ && "cannot schedule into the past");
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  l.heap.push_back(LaneEvent{at, l.next_seq++, kind, a, b, gen});
  std::push_heap(l.heap.begin(), l.heap.end(), Later{});
}

Ns EventEngine::next_lane_time() const {
  Ns t = kUnlimited;
  for (const Lane& l : lanes_) {
    if (!l.heap.empty()) t = std::min(t, l.heap.front().at);
  }
  return t;
}

std::size_t EventEngine::pending() const {
  std::size_t n = control_.size();
  for (const Lane& l : lanes_) n += l.heap.size();
  return n;
}

Ns EventEngine::next_event_time() const {
  const Ns tc = control_.empty() ? kUnlimited : control_.front().at;
  return std::min(tc, next_lane_time());
}

void EventEngine::drain_lanes(Ns t) {
  assert(lane_handler_ && "lane events scheduled without a handler");
  in_lane_phase_ = true;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    while (!lane.heap.empty() && lane.heap.front().at <= t) {
      std::pop_heap(lane.heap.begin(), lane.heap.end(), Later{});
      const LaneEvent ev = lane.heap.back();
      lane.heap.pop_back();
      ++lane_events_fired_;
      lane_handler_(static_cast<int>(i), ev);
    }
  }
  in_lane_phase_ = false;
  if (merge_hook_) merge_hook_(t);
}

Ns EventEngine::run_until(Ns until) {
  for (;;) {
    const Ns tc = control_.empty() ? kUnlimited : control_.front().at;
    const Ns tl = next_lane_time();
    const Ns t = std::min(tc, tl);
    if (t > until || t == kUnlimited) break;
    now_ = std::max(now_, t);
    if (tl <= tc) {
      // Lanes first at every instant; the merge hook may schedule more
      // work at `t`, picked up by the next iteration.
      drain_lanes(t);
      continue;
    }
    std::pop_heap(control_.begin(), control_.end(), Later{});
    ControlEvent ev = std::move(control_.back());
    control_.pop_back();
    ev.fn();
  }
  if (until != kUnlimited) now_ = std::max(now_, until);
  return now_;
}

Ns EventEngine::run() { return run_until(kUnlimited); }

}  // namespace numaio::sim
