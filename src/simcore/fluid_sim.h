// Hybrid fluid-flow simulation.
//
// Transfers carry a byte count over a path of FlowSolver resources. While a
// set of transfers is active, each progresses at its max-min-fair rate; the
// rate allocation is recomputed whenever a transfer starts or completes
// (the classical fluid approximation used in bandwidth studies). This gives
// exact completion times under piecewise-constant fair sharing without
// per-packet events, which is the right granularity for the paper's
// steady-state bandwidth experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/flow_solver.h"
#include "simcore/units.h"

namespace numaio::sim {

class FluidSimulation {
 public:
  using TransferId = std::size_t;
  /// Called when a transfer finishes; receives the id and completion time.
  /// The callback may start new transfers.
  using CompletionFn = std::function<void(TransferId, Ns)>;

  /// The solver holds the resource network; the simulation owns the flows it
  /// creates on it. The solver must outlive the simulation.
  explicit FluidSimulation(FlowSolver& solver) : solver_(solver) {}

  /// Same, but reconfigures the solver's execution engine (component
  /// partitioning; simcore/solve_options.h) up front. run() naturally
  /// batches event application between solves — every start and control
  /// due at an instant applies before the one re-solve — so with
  /// partitioning enabled a batch dirties its components once and they
  /// re-solve together.
  FluidSimulation(FlowSolver& solver, const SolveOptions& options)
      : solver_(solver) {
    solver_.set_options(options);
  }

  /// Starts a transfer immediately (at the current simulated time).
  TransferId start_transfer(std::vector<Usage> usages, Bytes bytes,
                            Gbps rate_cap = kUnlimited,
                            CompletionFn on_complete = {});

  /// Schedules a transfer to start at absolute time `at` (>= now()).
  TransferId start_transfer_at(Ns at, std::vector<Usage> usages,
                               Bytes bytes, Gbps rate_cap = kUnlimited,
                               CompletionFn on_complete = {});

  /// Control events: at absolute time `at`, `fn` runs and the fair-share
  /// allocation is recomputed. This is how time-varying *infrastructure*
  /// enters the fluid model — a fault window scaling a link capacity, a
  /// watchdog aborting a stuck transfer, a retry relaunching one — without
  /// falsifying the contention math (rates re-solve at every change
  /// point). Events due at the same instant fire in scheduling order;
  /// completions beat controls at an exact tie, so a transfer finishing
  /// exactly at its deadline counts as finished.
  using ControlFn = std::function<void()>;
  void schedule_control(Ns at, ControlFn fn);

  /// Aborts an active or not-yet-started transfer: its flow leaves the
  /// network, stats record the partial byte count and `aborted = true`,
  /// and the completion callback is NOT invoked. Returns false (and does
  /// nothing) when the transfer already finished or was already aborted.
  bool abort_transfer(TransferId id);

  /// Runs until every transfer (including ones spawned by completion
  /// callbacks) has finished or aborted and all control events have fired.
  /// Returns the final simulated time.
  Ns run();

  Ns now() const { return now_; }

  struct TransferStats {
    Ns start = 0.0;
    Ns end = 0.0;
    Bytes bytes = 0;        ///< Requested payload.
    Bytes bytes_moved = 0;  ///< Actually transferred (== bytes unless aborted).
    bool done = false;
    bool aborted = false;
    /// Average rate over the transfer's lifetime (moved bytes / lifetime).
    Gbps avg_rate() const {
      return end > start ? gbps(bytes_moved, end - start) : 0.0;
    }
  };
  const TransferStats& stats(TransferId id) const;
  std::size_t transfer_count() const { return transfers_.size(); }

  /// One constant-rate phase of a transfer's lifetime.
  struct RateSegment {
    Ns duration = 0.0;
    Gbps rate = 0.0;
  };

  /// Batched completion application (the ROADMAP's "batch event
  /// application between solves"): when enabled, all transfers finishing
  /// at the same instant detach with one FlowSolver::remove_flows call —
  /// a single epoch bump, so the burst pays one re-solve instead of one
  /// per completion — and are marked done *before* any completion
  /// callback runs. Rates and completion times are bit-identical to the
  /// per-event default (property-tested in tests/test_fluid_sim.cpp).
  /// The one observable difference: a callback aborting a transfer due
  /// at the very same instant. Per-event application lets the abort win
  /// (the later transfer counts aborted); batched application has
  /// already completed it. Default off to preserve that per-event
  /// semantic for existing callers.
  void set_batch_completions(bool on) { batch_completions_ = on; }
  bool batch_completions() const { return batch_completions_; }

  /// Enables per-transfer rate tracing (must be called before run()).
  /// The paper leans on rate stability to justify single long transfers
  /// ("the bandwidth performance is stable over the whole data transfer
  /// process", §V-B); traces let callers verify it.
  void enable_rate_trace() { trace_ = true; }

  /// The traced constant-rate segments of a finished transfer (empty when
  /// tracing was off).
  const std::vector<RateSegment>& trace(TransferId id) const;

  /// Time-weighted mean rate and the time-weighted coefficient of
  /// variation of the traced rate; cv == 0 for perfectly steady flows.
  struct RateStability {
    Gbps mean = 0.0;
    double cv = 0.0;
  };
  RateStability rate_stability(TransferId id) const;

  /// Total bytes moved divided by the time from the first start to the last
  /// completion — the "average aggregate performance" the paper reports.
  Gbps aggregate_rate() const;

 private:
  struct Transfer {
    std::vector<Usage> usages;
    Gbps rate_cap = kUnlimited;
    double remaining_bits = 0.0;
    FlowId flow = 0;
    bool active = false;
    CompletionFn on_complete;
    TransferStats stats;
    std::vector<RateSegment> trace;
  };
  struct Pending {
    Ns at;
    TransferId id;
  };
  struct Control {
    Ns at;
    std::uint64_t seq;
    ControlFn fn;
  };

  void activate(TransferId id);
  void complete(TransferId id);
  /// Completes every transfer in due_ in one sweep: bulk flow removal,
  /// then state flips, then callbacks (batch-completion mode).
  void complete_batch();

  FlowSolver& solver_;
  bool trace_ = false;
  bool batch_completions_ = false;
  Ns now_ = 0.0;
  std::vector<Transfer> transfers_;
  std::vector<Pending> pending_;   // kept sorted descending by time
  std::vector<Control> controls_;  // kept sorted descending by (time, seq)
  std::uint64_t next_control_seq_ = 0;
  // Active transfers, sorted ascending by id so the per-event loops walk
  // live work in deterministic id order instead of rescanning every
  // transfer ever started.
  std::vector<TransferId> active_;
  std::vector<TransferId> due_;  // reusable completion-sweep scratch
  std::vector<FlowId> batch_flows_;  // bulk-removal scratch (batch mode)
};

}  // namespace numaio::sim
