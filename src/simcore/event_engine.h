// Discrete-event engine: a binary min-heap of plain-data events plus FIFO
// delay lines for constant-interval timers (DESIGN.md §13).
//
// Events are ordered by (at, phase, seq): time first, then phase, then
// scheduling order, so same-instant events of one phase pop FIFO. The
// fleet puts completion alarms in phase 0 and everything else in phase 1,
// which makes every alarm due at an instant pop before any other event
// at that instant — including alarms scheduled while a phase-1 event at
// that instant is being handled. `kind`/`id`/`gen` are caller payload.
//
// Kinds named at construction get a delay line each: a FIFO that takes
// the kind's event when it does not order before the line's tail, which
// is every event of a timer kind whose times never decrease (deadline =
// submit + constant, timeout = dispatch + constant). Any other event of
// the kind goes to the heap. Every line is therefore sorted, and pop()
// takes the least (at, phase, seq) of the heap top and the line heads:
// the pop order is the one a single heap would give, for any caller.
// Line operations are O(1), and the heap keeps only the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
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

  EventEngine() = default;
  /// Gives each kind in `line_kinds` its own delay line.
  explicit EventEngine(std::initializer_list<std::uint8_t> line_kinds);

  Ns now() const { return now_; }

  /// Schedules an event at absolute time `at` (>= now()).
  void schedule(Ns at, std::uint8_t phase, std::uint8_t kind, int id = 0,
                std::uint64_t gen = 0);

  /// Removes and returns the earliest event, advancing now() to its time;
  /// nullopt (clock unchanged) when no event is pending.
  std::optional<Event> pop();

  /// True when the next event is a phase-`phase` event at exactly `at`.
  bool next_is(Ns at, std::uint8_t phase) const {
    const Event* next = peek(nullptr);
    return next != nullptr && next->at == at && next->phase == phase;
  }

  /// Cost counters: the heap's high-water mark and the pops served by
  /// the heap and by the delay lines.
  std::size_t heap_peak() const { return heap_peak_; }
  std::uint64_t heap_pops() const { return heap_pops_; }
  std::uint64_t line_pops() const { return line_pops_; }

 private:
  struct Line {
    std::uint8_t kind = 0;
    std::deque<Event> events;  ///< Sorted on (at, phase, seq).
  };

  /// The least pending event, or nullptr. When `line` is given, `*line`
  /// is the index of the line holding it, or lines_.size() for the heap.
  const Event* peek(std::size_t* line) const;

  Ns now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;  ///< Min-heap on (at, phase, seq).
  std::vector<Line> lines_;
  std::size_t heap_peak_ = 0;
  std::uint64_t heap_pops_ = 0;
  std::uint64_t line_pops_ = 0;
};

}  // namespace numaio::sim
