// Discrete-event engine: one binary min-heap of plain-data events
// (DESIGN.md §13).
//
// Events are ordered by (at, phase, seq): time first, then phase, then
// scheduling order, so same-instant events of one phase pop FIFO. The
// fleet puts completion alarms in phase 0 and everything else in phase 1,
// which makes every alarm due at an instant pop before any other event
// at that instant — including alarms scheduled while a phase-1 event at
// that instant is being handled. `kind`/`id`/`gen` are caller payload.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "simcore/units.h"

namespace numaio::sim {

class EventEngine {
 public:
  struct Event {
    Ns at = 0.0;
    std::uint64_t seq = 0;  ///< Set by schedule(); FIFO tie-break.
    std::uint8_t phase = 0;
    std::uint8_t kind = 0;
    int id = 0;
    std::uint64_t gen = 0;
  };

  Ns now() const { return now_; }

  /// Schedules an event at absolute time `at` (>= now()).
  void schedule(Ns at, std::uint8_t phase, std::uint8_t kind, int id = 0,
                std::uint64_t gen = 0);

  /// Removes and returns the earliest event, advancing now() to its time;
  /// nullopt (clock unchanged) when no event is pending.
  std::optional<Event> pop();

  /// True when the next event is a phase-`phase` event at exactly `at`.
  bool next_is(Ns at, std::uint8_t phase) const {
    return !heap_.empty() && heap_.front().at == at &&
           heap_.front().phase == phase;
  }

 private:
  Ns now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;  ///< Min-heap on (at, phase, seq).
};

}  // namespace numaio::sim
