// SolveOptions: the one knob block for the flow-solver execution engine.
//
// This is the library's standard config-aggregate idiom (DESIGN.md §11
// "Config aggregates"): a plain struct whose fields carry their defaults
// in-line, passed by const reference with a `= {}` default argument, so
// call sites name only the knobs they change. membench::StreamConfig,
// io::StreamSpec and faults::RandomPlanConfig follow the same shape.
//
// Semantics:
//  - `partition` turns on resource-connected-component partitioning with
//    per-component dirty tracking: flows in disjoint components cannot
//    interact under max-min fairness, so a mutation re-solves only the
//    component it touched. It defaults to off because a partitioned solve
//    is NOT bit-identical to the monolithic solver on multi-component
//    graphs (the global water-filling delta is a min across components;
//    summing per-component deltas reassociates the floating-point
//    arithmetic).
//  - `threads` must be 1: the solver runs on the calling thread.
//    FlowSolver rejects any other value with StatusCode::kUsage.
#pragma once

namespace numaio::sim {

struct SolveOptions {
  /// Solver threads. Only 1 is accepted.
  int threads = 1;
  /// Solve resource-connected components independently with per-component
  /// dirty caching.
  bool partition = false;

  friend bool operator==(const SolveOptions& a, const SolveOptions& b) {
    return a.threads == b.threads && a.partition == b.partition;
  }
};

}  // namespace numaio::sim
