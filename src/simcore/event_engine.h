// Discrete-event engine: per-lane alarm heaps plus a serial control queue
// (DESIGN.md §13).
//
// The schedule is split in two:
//
//  * Lane events — plain-data records on one binary heap per lane (the
//    fleet maps lane == host). At each instant every lane holding due
//    events drains them, in ascending lane order; a handler may touch
//    only its own lane's state, may schedule follow-ups onto its *own*
//    lane, and must not emit traces or metrics.
//  * Control events — closures on one heap, fired one at a time in
//    (at, seq) order, so same-instant events run in scheduling order.
//
// Per instant, lanes drain first, then the merge hook runs (the only
// place lane results become globally visible — the fleet commits them
// there in lane order), then control events fire in (at, seq) order.
// Every trace the fleet writes depends on this ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/units.h"

namespace numaio::sim {

class EventEngine {
 public:
  using Callback = std::function<void()>;

  /// One plain-data lane event. `kind`/`a`/`b`/`gen` are caller-defined
  /// payload (the fleet encodes projection alarms with a generation
  /// guard); `at`/`seq` order the lane's heap.
  struct LaneEvent {
    Ns at = 0.0;
    std::uint64_t seq = 0;
    int kind = 0;
    int a = 0;
    int b = 0;
    std::uint64_t gen = 0;
  };

  /// Runs for each drained event. Must not touch other lanes, the
  /// control queue, traces, or metrics.
  using LaneHandler = std::function<void(int lane, const LaneEvent&)>;

  /// Runs after each lane drain, at the drain's instant. The only place
  /// lane-drain results may be published.
  using MergeHook = std::function<void(Ns at)>;

  /// `num_lanes` independent alarm heaps (clamped to >= 1).
  explicit EventEngine(int num_lanes = 1);

  void set_lane_handler(LaneHandler handler);
  void set_merge_hook(MergeHook hook);

  Ns now() const { return now_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  /// Schedules a control closure at absolute time `at` (>= now()). Not
  /// from a lane handler.
  void schedule_at(Ns at, Callback fn);
  void schedule_in(Ns delay, Callback fn);

  /// Schedules a lane event. Control events, the merge hook and setup
  /// code may target any lane; a lane handler only its own.
  void schedule_lane(int lane, Ns at, int kind, int a, int b,
                     std::uint64_t gen);

  /// Runs lane drains and control events until both queues are empty.
  Ns run();

  /// Runs everything with timestamp <= `until`, then advances the clock
  /// to `until` if it has not passed it.
  Ns run_until(Ns until);

  std::size_t pending() const;
  Ns next_event_time() const;

  /// Lane events fired over the engine's life (all lanes).
  long long lane_events_fired() const { return lane_events_fired_; }

 private:
  struct ControlEvent {
    Ns at;
    std::uint64_t seq;
    Callback fn;
  };

  /// One lane's heap.
  struct Lane {
    std::vector<LaneEvent> heap;  ///< Min-heap on (at, seq).
    std::uint64_t next_seq = 0;
  };

  /// Earliest lane-event time across lanes; kUnlimited when none.
  Ns next_lane_time() const;
  /// Drains every lane's events with at <= `t` in lane order, then runs
  /// the merge hook.
  void drain_lanes(Ns t);

  Ns now_ = 0.0;
  std::uint64_t next_control_seq_ = 0;
  bool in_lane_phase_ = false;
  long long lane_events_fired_ = 0;
  std::vector<ControlEvent> control_;  ///< Min-heap on (at, seq).
  std::vector<Lane> lanes_;
  LaneHandler lane_handler_;
  MergeHook merge_hook_;
};

}  // namespace numaio::sim
