// EventEngine tests (DESIGN.md §13): control-queue ordering and clock
// semantics, lanes-drain-before-control at shared instants, the merge
// hook, and lane-local rescheduling.
#include "simcore/event_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace numaio::sim {
namespace {

TEST(EventEngine, StartsAtZero) {
  EventEngine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EventEngine, RunsEventsInTimeOrder) {
  EventEngine e;
  std::vector<int> order;
  e.schedule_at(30.0, [&] { order.push_back(3); });
  e.schedule_at(10.0, [&] { order.push_back(1); });
  e.schedule_at(20.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 30.0);
}

TEST(EventEngine, SameTimestampFifo) {
  EventEngine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEngine, ScheduleInIsRelative) {
  EventEngine e;
  double fired_at = -1.0;
  e.schedule_at(100.0, [&] {
    e.schedule_in(50.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 150.0);
}

TEST(EventEngine, RunUntilStopsAtBoundary) {
  EventEngine e;
  int fired = 0;
  e.schedule_at(10.0, [&] { ++fired; });
  e.schedule_at(20.0, [&] { ++fired; });
  e.schedule_at(30.0, [&] { ++fired; });
  e.run_until(20.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 20.0);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventEngine, RunUntilAdvancesClockWithoutEvents) {
  EventEngine e;
  e.run_until(500.0);
  EXPECT_DOUBLE_EQ(e.now(), 500.0);
}

TEST(EventEngine, EventsCanCascade) {
  EventEngine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) e.schedule_in(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(EventEngine, NextEventTime) {
  EventEngine e;
  EXPECT_EQ(e.next_event_time(), kUnlimited);
  e.schedule_at(42.0, [] {});
  EXPECT_DOUBLE_EQ(e.next_event_time(), 42.0);
}

TEST(EventEngine, LanesDrainBeforeControlAtTheSameInstant) {
  EventEngine eng(/*num_lanes=*/2);
  std::vector<std::string> order;
  eng.set_lane_handler([&](int lane, const EventEngine::LaneEvent&) {
    order.push_back("lane" + std::to_string(lane));
  });
  eng.set_merge_hook([&](Ns at) {
    order.push_back("merge@" + std::to_string(static_cast<int>(at)));
  });
  eng.schedule_at(10.0, [&] { order.push_back("control"); });
  eng.schedule_lane(1, 10.0, /*kind=*/1, 0, 0, /*gen=*/0);
  eng.schedule_lane(0, 10.0, /*kind=*/1, 0, 0, /*gen=*/0);
  eng.run();
  // Both lanes drain in ascending lane order, then the merge hook, then
  // the control closure — all at t = 10.
  EXPECT_EQ(order, (std::vector<std::string>{"lane0", "lane1", "merge@10",
                                             "control"}));
  EXPECT_EQ(eng.lane_events_fired(), 2);
}

TEST(EventEngine, LaneHandlerMayRescheduleItsOwnLane) {
  EventEngine eng(/*num_lanes=*/3);
  std::vector<long long> fired(3, 0);
  int merges = 0;
  eng.set_lane_handler([&](int lane, const EventEngine::LaneEvent& ev) {
    ++fired[static_cast<std::size_t>(lane)];
    if (ev.gen > 0) {
      eng.schedule_lane(lane, ev.at + 5.0, ev.kind, ev.a, ev.b, ev.gen - 1);
    }
  });
  eng.set_merge_hook([&](Ns) { ++merges; });
  for (int lane = 0; lane < 3; ++lane) {
    eng.schedule_lane(lane, 10.0, 1, 0, 0, /*gen=*/3);
  }
  const Ns end = eng.run();
  // Each lane fires at 10, 15, 20, 25.
  EXPECT_EQ(fired, (std::vector<long long>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(end, 25.0);
  EXPECT_EQ(merges, 4);  // one merge per shared instant
  EXPECT_EQ(eng.lane_events_fired(), 12);
}

TEST(EventEngine, RunUntilCoversLaneEvents) {
  EventEngine eng(/*num_lanes=*/1);
  std::vector<Ns> fired;
  eng.schedule_at(10.0, [&] { fired.push_back(10.0); });
  eng.schedule_at(30.0, [&] { fired.push_back(30.0); });
  eng.schedule_lane(0, 25.0, 1, 0, 0, 0);
  eng.set_lane_handler(
      [&](int, const EventEngine::LaneEvent& ev) { fired.push_back(ev.at); });

  EXPECT_DOUBLE_EQ(eng.run_until(20.0), 20.0);
  EXPECT_EQ(fired, (std::vector<Ns>{10.0}));
  EXPECT_EQ(eng.pending(), 2u);
  EXPECT_DOUBLE_EQ(eng.next_event_time(), 25.0);

  // An empty stretch still advances the clock to `until`.
  EXPECT_DOUBLE_EQ(eng.run_until(22.0), 22.0);

  EXPECT_DOUBLE_EQ(eng.run(), 30.0);
  EXPECT_EQ(fired, (std::vector<Ns>{10.0, 25.0, 30.0}));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(EventEngine, ControlMayScheduleLaneEventsAndViceVersa) {
  // The merge hook may schedule new lane or control work; it must land
  // at later instants, never be lost.
  EventEngine eng(/*num_lanes=*/2);
  std::vector<std::string> order;
  eng.set_lane_handler([&](int lane, const EventEngine::LaneEvent&) {
    order.push_back("lane" + std::to_string(lane));
  });
  eng.set_merge_hook([&](Ns at) {
    if (at == 10.0) {
      eng.schedule_lane(1, 20.0, 1, 0, 0, 0);
      eng.schedule_at(15.0, [&] { order.push_back("control"); });
    }
  });
  eng.schedule_lane(0, 10.0, 1, 0, 0, 0);
  const Ns end = eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"lane0", "control", "lane1"}));
  EXPECT_DOUBLE_EQ(end, 20.0);
}

TEST(EventEngine, MergeLogFollowsLaneOrderAcrossInstants) {
  // Eight lanes each run a five-step chain (t = 10, 13, ..., 22); a
  // control event at 16 adds one more lane-3 event at 19. Each handler
  // folds its event into its own lane's accumulator and the merge hook
  // publishes all accumulators, so the log pins down the per-instant
  // order: lanes in ascending order, each lane's events in (at, seq)
  // order, then one merge.
  constexpr int kLanes = 8;
  EventEngine eng(kLanes);
  std::vector<long long> acc(kLanes, 0);
  std::vector<long long> log;
  eng.set_lane_handler([&](int lane, const EventEngine::LaneEvent& ev) {
    auto& a = acc[static_cast<std::size_t>(lane)];
    a = a * 31 + ev.kind * 7 + ev.a;
    if (ev.gen > 0) {
      eng.schedule_lane(lane, ev.at + 3.0, ev.kind, ev.a + 1, 0, ev.gen - 1);
    }
  });
  eng.set_merge_hook([&](Ns at) {
    log.push_back(static_cast<long long>(at));
    for (const long long a : acc) log.push_back(a);
  });
  for (int lane = 0; lane < kLanes; ++lane) {
    eng.schedule_lane(lane, 10.0, /*kind=*/1 + lane % 2, lane, 0, /*gen=*/4);
  }
  eng.schedule_at(16.0, [&] { eng.schedule_lane(3, 19.0, 5, 100, 0, 0); });
  EXPECT_DOUBLE_EQ(eng.run(), 22.0);

  // The same history folded by hand.
  std::vector<long long> want_acc(kLanes, 0);
  std::vector<long long> want;
  for (int step = 0; step < 5; ++step) {
    for (int lane = 0; lane < kLanes; ++lane) {
      auto& a = want_acc[static_cast<std::size_t>(lane)];
      a = a * 31 + (1 + lane % 2) * 7 + lane + step;
      // The chain's follow-up was scheduled at 16 during the lane drain,
      // before the control event, so it fires first at 19.
      if (lane == 3 && step == 3) a = a * 31 + 5 * 7 + 100;
    }
    want.push_back(10 + 3 * step);
    want.insert(want.end(), want_acc.begin(), want_acc.end());
  }
  EXPECT_EQ(log, want);
  EXPECT_EQ(eng.lane_events_fired(), kLanes * 5 + 1);
  EXPECT_EQ(eng.pending(), 0u);
}

}  // namespace
}  // namespace numaio::sim
