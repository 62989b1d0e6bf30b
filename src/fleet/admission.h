// Admission control primitives for the fleet serving core: per-tenant
// token buckets and a bounded priority queue that sheds lowest-priority
// work instead of growing without bound.
//
// The paper's Eq. 1 predicts what an accepted multi-user load will get;
// admission control decides what gets accepted in the first place. Both
// primitives are pure simulated-time state machines (no wall clock), so
// fleet runs stay deterministic. The queue keeps its entries indexed by
// priority level (one FIFO per level), so push/pop/shed are O(log levels)
// instead of the O(depth) scans the first fleet cut paid — at six-figure
// offered rps with a full queue, those scans were the hottest loop in the
// whole fleet (ISSUE 10).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "simcore/units.h"

namespace numaio::fleet {

/// Classic token bucket in simulated time: `rate_per_s` tokens accrue per
/// simulated second up to `burst`; try_take spends one. Starts full.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// Refills for the elapsed time, then takes one token if available.
  bool try_take(sim::Ns now);

  /// Token level after refilling to `now` (does not spend).
  double tokens(sim::Ns now);

 private:
  void refill(sim::Ns now);

  double rate_per_s_;
  double burst_;
  double tokens_;
  sim::Ns last_ = 0.0;
};

/// One queued admission ticket. `request` is an opaque caller-side id.
struct QueueItem {
  int request = -1;
  int priority = 0;  ///< Higher survives longer; shedding starts lowest.
};

/// Priority-indexed FIFO: one arrival-ordered level per distinct priority.
/// The two ends the fleet cares about are both O(log levels): best() is
/// the pop order (highest priority, earliest sequence) and victim() is the
/// shed order (lowest priority, latest sequence). Sequence numbers are
/// assigned by the caller (BoundedQueue numbers arrivals in push order).
class PriorityFifo {
 public:
  struct Entry {
    QueueItem item;
    std::uint64_t seq = 0;
  };

  /// Appends `item` at its priority level. `seq` must be strictly greater
  /// than every sequence previously pushed at that priority.
  void push(QueueItem item, std::uint64_t seq);

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  /// Highest-priority, earliest-seq entry. Requires !empty().
  const Entry& best() const;
  /// Lowest-priority, latest-seq entry (the shed candidate). Requires
  /// !empty().
  const Entry& victim() const;

  QueueItem pop_best();
  QueueItem pop_victim();

  /// Removes the entry for `request` (e.g. its deadline passed while
  /// queued). O(depth) worst case — removal is the rare path. Returns
  /// false when not present.
  bool remove(int request);

 private:
  std::map<int, std::deque<Entry>> levels_;  ///< priority -> FIFO.
  int size_ = 0;
};

/// Fixed-depth priority queue with lowest-priority-first eviction.
///
/// pop() serves the highest priority, FIFO within a priority level. When
/// a push would exceed `max_depth`, the queue sheds exactly one item: the
/// latest-arrived entry of the lowest priority present — which is the
/// incoming item itself unless it outranks the current minimum. The
/// invariant the fleet contract rests on: a shed item's priority is <=
/// every priority still queued at that instant, and depth() never exceeds
/// max_depth.
class BoundedQueue {
 public:
  explicit BoundedQueue(int max_depth) : max_depth_(max_depth) {}

  struct PushResult {
    bool accepted = false;  ///< The incoming item is now queued.
    bool shed = false;      ///< One item was shed to make room.
    QueueItem victim{};     ///< The shed item (may be the incoming one).
  };
  PushResult push(QueueItem item);

  /// Highest-priority, earliest-arrival item. Queue must be non-empty.
  QueueItem pop();

  /// Removes the entry for `request` (e.g. its deadline passed while
  /// queued). Returns false when not present.
  bool remove(int request);

  bool empty() const { return fifo_.empty(); }
  int depth() const { return fifo_.size(); }
  int max_depth() const { return max_depth_; }

 private:
  int max_depth_;
  std::uint64_t next_seq_ = 0;
  PriorityFifo fifo_;
};

}  // namespace numaio::fleet
