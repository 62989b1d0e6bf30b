// EventEngine tests (DESIGN.md §13): (at, phase, seq) ordering, clock
// semantics, the plain-data payload, the fleet-style commit loop that
// publishes all completion alarms of an instant at once, and the delay
// lines checked against a sorted-set reference.
#include "simcore/event_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "simcore/rng.h"

namespace numaio::sim {
namespace {

constexpr std::uint8_t kAlarm = 0;    // phase of completion alarms
constexpr std::uint8_t kControl = 1;  // phase of every other event

/// Drains `eng` the way the fleet runtime does: phase-0 events go to
/// `on_alarm`, the last phase-0 event due at an instant is followed by
/// `commit(at)`, and phase-1 events go to `on_control`.
template <typename OnAlarm, typename Commit, typename OnControl>
Ns drain(EventEngine& eng, OnAlarm on_alarm, Commit commit,
         OnControl on_control) {
  while (const auto ev = eng.pop()) {
    if (ev->phase == kAlarm) {
      on_alarm(*ev);
      if (!eng.next_is(ev->at, kAlarm)) commit(ev->at);
    } else {
      on_control(*ev);
    }
  }
  return eng.now();
}

/// Pops everything, returning the ids in pop order.
std::vector<int> pop_ids(EventEngine& eng) {
  std::vector<int> ids;
  while (const auto ev = eng.pop()) ids.push_back(ev->id);
  return ids;
}

TEST(EventEngine, StartsAtZeroAndEmpty) {
  EventEngine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_FALSE(e.next_is(0.0, kAlarm));
  EXPECT_FALSE(e.next_is(0.0, kControl));
  EXPECT_FALSE(e.pop().has_value());
}

TEST(EventEngine, PopOnEmptyLeavesTheClockAlone) {
  EventEngine e;
  e.schedule(42.0, kControl, 0);
  ASSERT_TRUE(e.pop().has_value());
  EXPECT_DOUBLE_EQ(e.now(), 42.0);
  EXPECT_FALSE(e.pop().has_value());
  EXPECT_FALSE(e.pop().has_value());
  EXPECT_DOUBLE_EQ(e.now(), 42.0);
}

TEST(EventEngine, RunsEventsInTimeOrder) {
  EventEngine e;
  e.schedule(30.0, kControl, 0, 3);
  e.schedule(10.0, kControl, 0, 1);
  e.schedule(20.0, kControl, 0, 2);
  EXPECT_EQ(pop_ids(e), (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 30.0);
}

TEST(EventEngine, SameTimestampFifo) {
  EventEngine e;
  for (int i = 0; i < 5; ++i) e.schedule(5.0, kControl, 0, i);
  for (int i = 5; i < 10; ++i) e.schedule(5.0, kAlarm, 0, i);
  // Each phase pops in scheduling order; the alarms come first.
  EXPECT_EQ(pop_ids(e), (std::vector<int>{5, 6, 7, 8, 9, 0, 1, 2, 3, 4}));
}

TEST(EventEngine, PayloadRoundTrips) {
  EventEngine e;
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  e.schedule(7.5, kControl, 255, -3, big);
  e.schedule(7.5, kAlarm, 4, std::numeric_limits<int>::max(), 0);
  const auto first = e.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->at, 7.5);
  EXPECT_EQ(first->phase, kAlarm);
  EXPECT_EQ(first->kind, 4);
  EXPECT_EQ(first->id, std::numeric_limits<int>::max());
  EXPECT_EQ(first->gen, 0u);
  EXPECT_EQ(first->seq, 1u);
  const auto second = e.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->at, 7.5);
  EXPECT_EQ(second->phase, kControl);
  EXPECT_EQ(second->kind, 255);
  EXPECT_EQ(second->id, -3);
  EXPECT_EQ(second->gen, big);
  EXPECT_EQ(second->seq, 0u);
}

TEST(EventEngine, ScheduleRelativeToNowInsideAHandler) {
  EventEngine e;
  e.schedule(100.0, kControl, 0, 1);
  std::vector<Ns> fired;
  while (const auto ev = e.pop()) {
    fired.push_back(e.now());
    if (ev->id == 1) e.schedule(e.now() + 50.0, kControl, 0, 2);
  }
  EXPECT_EQ(fired, (std::vector<Ns>{100.0, 150.0}));
}

TEST(EventEngine, ClockNeverRewinds) {
  // A random cascade: every handled event schedules 0-2 follow-ups at or
  // after now(), half of them at now() itself, in either phase. The clock
  // must equal each popped event's time and never move backwards.
  EventEngine e;
  Rng rng(2013);
  for (int i = 0; i < 20; ++i) {
    e.schedule(rng.uniform(0.0, 100.0),
               static_cast<std::uint8_t>(rng.below(2)), 0);
  }
  int popped = 0;
  Ns last = 0.0;
  while (const auto ev = e.pop()) {
    ++popped;
    EXPECT_GE(e.now(), last);
    EXPECT_EQ(e.now(), ev->at);
    last = e.now();
    if (popped > 2000) continue;
    const std::uint64_t children = rng.below(3);
    for (std::uint64_t c = 0; c < children; ++c) {
      const Ns delay = rng.below(2) == 0 ? 0.0 : rng.uniform(0.0, 10.0);
      e.schedule(e.now() + delay, static_cast<std::uint8_t>(rng.below(2)),
                 0);
    }
  }
  EXPECT_GT(popped, 20);
}

TEST(EventEngine, EventsCanCascade) {
  EventEngine e;
  e.schedule(0.0, kControl, 0, 0);
  int depth = 0;
  while (const auto ev = e.pop()) {
    if (++depth < 10) e.schedule(e.now() + 1.0, kControl, 0, ev->id + 1);
  }
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(EventEngine, PhaseZeroBeforePhaseOneAtTheSameInstant) {
  EventEngine e;
  e.schedule(10.0, kControl, 0, 1);
  e.schedule(10.0, kAlarm, 0, 2);
  e.schedule(10.0, kAlarm, 0, 3);
  EXPECT_EQ(pop_ids(e), (std::vector<int>{2, 3, 1}));
}

TEST(EventEngine, PhaseOnlyBreaksTiesAtTheSameInstant) {
  EventEngine e;
  e.schedule(20.0, kAlarm, 0, 2);
  e.schedule(10.0, kControl, 0, 1);
  e.schedule(20.0, kControl, 0, 3);
  EXPECT_EQ(pop_ids(e), (std::vector<int>{1, 2, 3}));
}

TEST(EventEngine, AlarmScheduledDuringControlFiresBeforeTheRest) {
  // The fleet's commit depends on this: a control event at t that
  // reprojects a host may schedule its alarm at t itself, and that alarm
  // (plus its commit) must run before the remaining control events at t.
  EventEngine e;
  for (int i = 1; i <= 3; ++i) e.schedule(10.0, kControl, 0, i);
  std::vector<std::string> order;
  drain(
      e, [&](const EventEngine::Event& ev) {
        order.push_back("alarm" + std::to_string(ev.id));
      },
      [&](Ns) { order.push_back("commit"); },
      [&](const EventEngine::Event& ev) {
        order.push_back("control" + std::to_string(ev.id));
        if (ev.id == 1) {
          e.schedule(10.0, kAlarm, 0, 7);
          e.schedule(10.0, kAlarm, 0, 8);
        }
      });
  EXPECT_EQ(order, (std::vector<std::string>{"control1", "alarm7", "alarm8",
                                             "commit", "control2",
                                             "control3"}));
}

TEST(EventEngine, NextIsSeesOnlyTheHead) {
  EventEngine e;
  e.schedule(5.0, kAlarm, 0);
  e.schedule(5.0, kControl, 0);
  e.schedule(9.0, kAlarm, 0);
  EXPECT_TRUE(e.next_is(5.0, kAlarm));
  EXPECT_FALSE(e.next_is(5.0, kControl));
  EXPECT_FALSE(e.next_is(9.0, kAlarm));
  ASSERT_TRUE(e.pop().has_value());
  EXPECT_TRUE(e.next_is(5.0, kControl));
  EXPECT_FALSE(e.next_is(5.0, kAlarm));
  ASSERT_TRUE(e.pop().has_value());
  EXPECT_TRUE(e.next_is(9.0, kAlarm));
}

TEST(EventEngine, RescheduledAlarmsCommitOncePerInstant) {
  // Three hosts each chain an alarm at 10, 15, 20, 25.
  EventEngine e;
  std::vector<long long> fired(3, 0);
  std::vector<Ns> commits;
  for (int host = 0; host < 3; ++host) e.schedule(10.0, kAlarm, 1, host, 3);
  const Ns end = drain(
      e, [&](const EventEngine::Event& ev) {
        ++fired[static_cast<std::size_t>(ev.id)];
        if (ev.gen > 0) e.schedule(ev.at + 5.0, kAlarm, 1, ev.id, ev.gen - 1);
      },
      [&](Ns at) { commits.push_back(at); },
      [](const EventEngine::Event&) {});
  EXPECT_EQ(fired, (std::vector<long long>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(end, 25.0);
  EXPECT_EQ(commits, (std::vector<Ns>{10.0, 15.0, 20.0, 25.0}));
}

TEST(EventEngine, CommitMaySchedulePhaseZeroAndControlWork) {
  // The commit at 10 schedules an alarm at 20, a control event at 15 and
  // an alarm at 10 itself; none is lost, and the same-instant alarm gets
  // its own commit before time moves on.
  EventEngine e;
  std::vector<std::string> order;
  e.schedule(10.0, kControl, 0, 1);
  e.schedule(10.0, kAlarm, 0, 0);
  const Ns end = drain(
      e, [&](const EventEngine::Event& ev) {
        order.push_back("alarm" + std::to_string(ev.id));
      },
      [&](Ns at) {
        order.push_back("commit@" + std::to_string(static_cast<int>(at)));
        if (at == 10.0 && order.size() == 2) {
          e.schedule(20.0, kAlarm, 0, 2);
          e.schedule(15.0, kControl, 0, 3);
          e.schedule(10.0, kAlarm, 0, 4);
        }
      },
      [&](const EventEngine::Event& ev) {
        order.push_back("control" + std::to_string(ev.id));
      });
  EXPECT_EQ(order, (std::vector<std::string>{
                       "alarm0", "commit@10", "alarm4", "commit@10",
                       "control1", "control3", "alarm2", "commit@20"}));
  EXPECT_DOUBLE_EQ(end, 20.0);
}

TEST(EventEngine, CommitLogFollowsHostOrderAcrossInstants) {
  // Eight hosts each run a five-step alarm chain (t = 10, 13, ..., 22); a
  // control event at 16 adds one more host-3 alarm at 19. Each alarm
  // folds into its own host's accumulator and the commit publishes all
  // accumulators in host order, so the log pins down the per-instant
  // order: each host's alarms in (at, seq) order, then one commit.
  constexpr int kHosts = 8;
  EventEngine e;
  std::vector<long long> acc(kHosts, 0);
  std::vector<long long> log;
  long long alarms = 0;
  for (int host = 0; host < kHosts; ++host) {
    e.schedule(10.0, kAlarm, static_cast<std::uint8_t>(1 + host % 2), host,
               /*gen=*/4);
  }
  e.schedule(16.0, kControl, 0);
  const Ns end = drain(
      e, [&](const EventEngine::Event& ev) {
        ++alarms;
        auto& a = acc[static_cast<std::size_t>(ev.id)];
        a = a * 31 + ev.kind * 7 + static_cast<long long>(ev.gen);
        if (ev.gen > 0) {
          e.schedule(ev.at + 3.0, kAlarm, ev.kind, ev.id, ev.gen - 1);
        }
      },
      [&](Ns at) {
        log.push_back(static_cast<long long>(at));
        for (const long long a : acc) log.push_back(a);
      },
      [&](const EventEngine::Event&) { e.schedule(19.0, kAlarm, 5, 3, 0); });
  EXPECT_DOUBLE_EQ(end, 22.0);

  // The same history folded by hand.
  std::vector<long long> want_acc(kHosts, 0);
  std::vector<long long> want;
  for (int step = 0; step < 5; ++step) {
    for (int host = 0; host < kHosts; ++host) {
      auto& a = want_acc[static_cast<std::size_t>(host)];
      a = a * 31 + (1 + host % 2) * 7 + (4 - step);
      // The chain's follow-up was scheduled at 16 by the alarm, before
      // the control event ran, so it fires first at 19.
      if (host == 3 && step == 3) a = a * 31 + 5 * 7 + 0;
    }
    want.push_back(10 + 3 * step);
    want.insert(want.end(), want_acc.begin(), want_acc.end());
  }
  EXPECT_EQ(log, want);
  EXPECT_EQ(alarms, kHosts * 5 + 1);
  EXPECT_FALSE(e.pop().has_value());
}

// --- delay lines ---------------------------------------------------------

TEST(EventEngine, LineTakesOnlyEventsThatKeepItSorted) {
  // Kind 1 has a delay line. 10, 20, 20 keep it sorted; 15 would not and
  // goes to the heap, and a phase-0 event at the tail's instant would
  // order before the tail, so it goes to the heap too.
  EventEngine e{1};
  e.schedule(10.0, kControl, 1, 1);
  e.schedule(20.0, kControl, 1, 2);
  e.schedule(20.0, kControl, 1, 3);
  e.schedule(15.0, kControl, 1, 4);
  e.schedule(20.0, kAlarm, 1, 5);
  e.schedule(12.0, kControl, 0, 6);
  EXPECT_EQ(e.heap_peak(), 3u);
  EXPECT_EQ(pop_ids(e), (std::vector<int>{1, 6, 4, 5, 2, 3}));
  EXPECT_EQ(e.line_pops(), 3u);
  EXPECT_EQ(e.heap_pops(), 3u);
}

TEST(EventEngine, TiesAcrossHeapAndLinesPopInSeqOrder) {
  // Same instant, same phase: scheduling order decides, whichever of the
  // heap and the two lines holds the event.
  EventEngine e{1, 2};
  for (int i = 0; i < 9; ++i) {
    e.schedule(5.0, kControl, static_cast<std::uint8_t>(i % 3), i);
  }
  EXPECT_EQ(pop_ids(e), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(e.line_pops(), 6u);
  EXPECT_EQ(e.heap_pops(), 3u);
}

/// The engine's contract as a sorted set: pop takes the least
/// (at, phase, seq), whatever holds the event.
struct ReferenceEngine {
  struct Less {
    bool operator()(const EventEngine::Event& a,
                    const EventEngine::Event& b) const {
      if (a.at != b.at) return a.at < b.at;
      if (a.phase != b.phase) return a.phase < b.phase;
      return a.seq < b.seq;
    }
  };
  std::set<EventEngine::Event, Less> pending;
  std::uint64_t next_seq = 0;
  Ns now = 0.0;

  void schedule(Ns at, std::uint8_t phase, std::uint8_t kind, int id,
                std::uint64_t gen) {
    pending.insert(EventEngine::Event{at, next_seq++, phase, kind, id, gen});
  }
  std::optional<EventEngine::Event> pop() {
    if (pending.empty()) return std::nullopt;
    const EventEngine::Event ev = *pending.begin();
    pending.erase(pending.begin());
    now = std::max(now, ev.at);
    return ev;
  }
  bool next_is(Ns at, std::uint8_t phase) const {
    return !pending.empty() && pending.begin()->at == at &&
           pending.begin()->phase == phase;
  }
};

TEST(EventEngine, DelayLinesPopInHeapOrder) {
  // 100,000 random operations over five seeds. Kinds 1 and 2 have delay
  // lines and are scheduled as constant-interval timers, mostly monotone
  // (so they ride the lines) and sometimes earlier than the line's tail
  // or in the other phase (so they fall back to the heap); kinds 0 and 3
  // are heap-only. Times sit on a coarse grid so exact-time ties across
  // the heap and the lines are common. Every pop is followed by 0-2
  // schedules from "inside the handler", half of them at now() itself,
  // until the final drain.
  // At every step the engine must agree with the reference: the same
  // popped event, the same now() and the same next_is answers.
  constexpr int kOpsPerSeed = 20000;
  constexpr Ns kInterval[4] = {0.0, 8.0, 3.0, 0.0};
  for (const std::uint64_t seed : {1u, 2u, 3u, 2013u, 0xfeedu}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventEngine e{1, 2};
    ReferenceEngine ref;
    Ns tail[4] = {0.0, 0.0, 0.0, 0.0};  // Last time scheduled per kind.
    long long pops = 0;

    const auto schedule_one = [&] {
      const auto kind = static_cast<std::uint8_t>(rng.below(4));
      auto phase = static_cast<std::uint8_t>(kControl);
      Ns at = 0.0;
      if (kInterval[kind] > 0.0 && rng.below(8) != 0) {
        // A timer: now + constant, never earlier than the last one.
        at = std::max(ref.now + kInterval[kind], tail[kind]);
        if (rng.below(10) == 0) phase = kAlarm;
      } else {
        // Anywhere from now() on: the line's tail may be later.
        at = ref.now + static_cast<Ns>(rng.below(12));
        phase = static_cast<std::uint8_t>(rng.below(2));
      }
      tail[kind] = std::max(tail[kind], at);
      const int id = static_cast<int>(rng.below(1000));
      const std::uint64_t gen = rng.next_u64();
      e.schedule(at, phase, kind, id, gen);
      ref.schedule(at, phase, kind, id, gen);
    };
    const auto agree = [&] {
      ASSERT_EQ(e.now(), ref.now);
      if (!ref.pending.empty()) {
        const EventEngine::Event& head = *ref.pending.begin();
        ASSERT_TRUE(e.next_is(head.at, head.phase));
        ASSERT_FALSE(
            e.next_is(head.at, static_cast<std::uint8_t>(1 - head.phase)));
      }
      const Ns probe_at = ref.now + static_cast<Ns>(rng.below(3));
      const auto probe_phase = static_cast<std::uint8_t>(rng.below(2));
      ASSERT_EQ(e.next_is(probe_at, probe_phase),
                ref.next_is(probe_at, probe_phase));
    };
    bool handlers_schedule = true;
    const auto pop_one = [&] {
      const auto got = e.pop();
      const auto want = ref.pop();
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want) return;
      ++pops;
      ASSERT_EQ(got->seq, want->seq) << "pop " << pops;
      ASSERT_EQ(got->at, want->at);
      ASSERT_EQ(got->phase, want->phase);
      ASSERT_EQ(got->kind, want->kind);
      ASSERT_EQ(got->id, want->id);
      ASSERT_EQ(got->gen, want->gen);
      const std::uint64_t children = handlers_schedule ? rng.below(3) : 0;
      for (std::uint64_t c = 0; c < children; ++c) {
        if (rng.below(2) == 0) {
          const auto phase = static_cast<std::uint8_t>(rng.below(2));
          const auto kind = static_cast<std::uint8_t>(rng.below(4));
          tail[kind] = std::max(tail[kind], ref.now);
          e.schedule(ref.now, phase, kind, -1, 0);
          ref.schedule(ref.now, phase, kind, -1, 0);
        } else {
          schedule_one();
        }
      }
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      if (rng.below(2) == 0) {
        schedule_one();
      } else {
        pop_one();
      }
      agree();
      if (HasFatalFailure()) return;
    }
    handlers_schedule = false;
    while (!ref.pending.empty()) {
      pop_one();
      agree();
      if (HasFatalFailure()) return;
    }
    EXPECT_FALSE(e.pop().has_value());
    EXPECT_EQ(e.heap_pops() + e.line_pops(),
              static_cast<std::uint64_t>(pops));
    // Both stores carried real traffic.
    EXPECT_GT(e.line_pops(), static_cast<std::uint64_t>(pops) / 5);
    EXPECT_GT(e.heap_pops(), static_cast<std::uint64_t>(pops) / 5);
  }
}

}  // namespace
}  // namespace numaio::sim
