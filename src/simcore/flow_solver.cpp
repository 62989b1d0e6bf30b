#include "simcore/flow_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace numaio::sim {

namespace {
// Weights accumulate and are later subtracted flow by flow; treat
// anything below this as zero so floating-point residue from frozen
// flows cannot resurrect a saturated resource with a bogus
// residual/weight ratio.
constexpr double kWeightEps = 1e-9;
constexpr double kEps = 1e-12;
// Removal churn tolerated before solve() re-derives components from the
// live flows: union-find can only merge, so without periodic rebuilds a
// long-lived solver would congeal into one stale mega-component and the
// partitioning would stop paying for itself.
constexpr std::size_t kRebuildMinRemovals = 16;

Status check_options(const SolveOptions& options) {
  if (options.threads != 1) {
    return Status{StatusCode::kUsage,
                  "SolveOptions::threads must be 1 (the solver runs on the "
                  "calling thread), got " +
                      std::to_string(options.threads)};
  }
  return Status{};
}
}  // namespace

/// Water-filling scratch, reused across solves.
struct FlowSolver::SolveScratch {
  std::vector<FlowId> worklist;     ///< Monolithic-mode flow list.
  std::vector<ResourceId> touched;  ///< Resources with live weight.
  std::vector<double> weight;
  std::vector<Gbps> residual;
  std::vector<std::uint64_t> touch_stamp;  ///< Per resource.
  std::vector<std::uint64_t> cand_stamp;   ///< Per flow slot.
  std::uint64_t stamp = 0;
  // Per-solve counters, summed into stats_ after each solve.
  std::uint64_t rounds = 0;
  std::uint64_t flows_scanned = 0;
  std::uint64_t resource_touches = 0;
  std::uint64_t scratch_grows = 0;
};

FlowSolver::FlowSolver(const SolveOptions& options)
    : options_(options), scratch_(std::make_unique<SolveScratch>()) {
  const Status status = check_options(options);
  if (!status.ok()) throw StatusError(status);
}

FlowSolver::~FlowSolver() = default;
FlowSolver::FlowSolver(FlowSolver&&) noexcept = default;
FlowSolver& FlowSolver::operator=(FlowSolver&&) noexcept = default;

void FlowSolver::set_options(const SolveOptions& options) {
  const Status status = check_options(options);
  if (!status.ok()) throw StatusError(status);
  if (options == options_) return;
  const bool was_partition = options_.partition;
  options_ = options;
  if (options_.partition && !was_partition) {
    // Components were not maintained while partitioning was off; derive
    // them from the live flows at the next solve.
    dsu_parent_.resize(resources_.size());
    dsu_size_.resize(resources_.size());
    comp_dirty_.assign(resources_.size(), 0);
    dirty_roots_.clear();
    need_rebuild_ = true;
  }
  // A partition toggle changes the floating-point association of the
  // result, so the cached rates cannot be reused.
  bump_epoch();
  all_dirty_ = true;
  detached_dirty_ = true;
}

void FlowSolver::bump_epoch() {
  ++epoch_;
  cache_valid_ = false;
}

void FlowSolver::refresh_capacity(ResourceId id) {
  Resource& r = resources_[id];
  // factor == 1.0 bypasses the multiply so an unscaled resource's
  // effective capacity is bit-identical to its base.
  const Gbps eff = (r.factor == 1.0) ? r.base : r.base * r.factor;
  if (eff != r.capacity) {
    r.capacity = eff;
    bump_epoch();
    if (options_.partition) mark_dirty(find_root(id));
  }
}

template <class T>
void FlowSolver::ensure_size(std::vector<T>& v, std::size_t n,
                             std::uint64_t& grows) {
  if (v.capacity() < n) ++grows;
  v.resize(n);
}

ResourceId FlowSolver::find_root(ResourceId r) const {
  while (dsu_parent_[r] != r) {
    dsu_parent_[r] = dsu_parent_[dsu_parent_[r]];  // path halving
    r = dsu_parent_[r];
  }
  return r;
}

ResourceId FlowSolver::unite(ResourceId a, ResourceId b) const {
  a = find_root(a);
  b = find_root(b);
  if (a == b) return a;
  // Size-major, lowest-id-minor tie break: the surviving root is a pure
  // function of the union sequence, never of memory layout.
  if (dsu_size_[a] < dsu_size_[b] ||
      (dsu_size_[a] == dsu_size_[b] && b < a)) {
    std::swap(a, b);
  }
  dsu_parent_[b] = a;
  dsu_size_[a] += dsu_size_[b];
  // A dirty mark on the absorbed root must survive on the merged root.
  if (comp_dirty_[b] != 0) mark_dirty(a);
  return a;
}

void FlowSolver::mark_dirty(ResourceId root) const {
  if (comp_dirty_[root] == 0) {
    comp_dirty_[root] = 1;
    dirty_roots_.push_back(root);
  }
}

void FlowSolver::rebuild_components() const {
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    dsu_parent_[r] = r;
    dsu_size_[r] = 1;
  }
  for (ResourceId r : dirty_roots_) comp_dirty_[r] = 0;
  dirty_roots_.clear();
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    const FlowMeta& m = flows_[f];
    for (std::size_t i = m.begin + 1; i < m.begin + m.count; ++i) {
      unite(usage_resource_[m.begin], usage_resource_[i]);
    }
  }
  removed_since_rebuild_ = 0;
  need_rebuild_ = false;
  all_dirty_ = true;
  detached_dirty_ = true;
  ++stats_.component_rebuilds;
  if (obs_ != nullptr) obs_->metrics.add(m_rebuilds_);
}

ResourceId FlowSolver::add_resource(std::string name, Gbps capacity) {
  assert(capacity >= 0.0);
  resources_.push_back(Resource{std::move(name), capacity, 1.0, capacity});
  incidence_.emplace_back();
  if (options_.partition) {
    dsu_parent_.push_back(resources_.size() - 1);
    dsu_size_.push_back(1);
    comp_dirty_.push_back(0);
  }
  bump_epoch();
  return resources_.size() - 1;
}

void FlowSolver::set_capacity(ResourceId id, Gbps capacity) {
  assert(id < resources_.size());
  assert(capacity >= 0.0);
  resources_[id].base = capacity;
  refresh_capacity(id);
}

void FlowSolver::set_capacity_factor(ResourceId id, double factor) {
  assert(id < resources_.size());
  assert(std::isfinite(factor) && factor > 0.0);
  resources_[id].factor = factor;
  refresh_capacity(id);
}

double FlowSolver::capacity_factor(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].factor;
}

Gbps FlowSolver::capacity(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].capacity;
}

const std::string& FlowSolver::resource_name(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].name;
}

FlowId FlowSolver::add_flow(std::vector<Usage> usages, Gbps rate_cap) {
  for (const Usage& u : usages) {
    assert(u.resource < resources_.size());
    assert(u.weight > 0.0);
    (void)u;
  }
  assert(rate_cap >= 0.0);
  const std::size_t n = usages.size();

  // Prefer a free slot whose arena span already fits; newest first so a
  // remove/add churn pair reuses hot cache lines.
  FlowId slot = kNoFlow;
  for (std::size_t k = free_slots_.size(); k-- > 0;) {
    if (flows_[free_slots_[k]].span >= n) {
      slot = free_slots_[k];
      free_slots_[k] = free_slots_.back();
      free_slots_.pop_back();
      break;
    }
  }
  if (slot == kNoFlow && !free_slots_.empty()) {
    // Recycle the slot header but give it a fresh, wider arena span; the
    // old span's cells are abandoned (bounded by flow-size growth, which
    // real workloads don't do in steady state).
    slot = free_slots_.back();
    free_slots_.pop_back();
    flows_[slot].begin = usage_resource_.size();
    flows_[slot].span = n;
    usage_resource_.resize(usage_resource_.size() + n);
    usage_weight_.resize(usage_weight_.size() + n);
    usage_inc_pos_.resize(usage_inc_pos_.size() + n);
  }
  if (slot == kNoFlow) {
    slot = flows_.size();
    FlowMeta fresh;
    fresh.begin = usage_resource_.size();
    fresh.span = n;
    flows_.push_back(fresh);
    usage_resource_.resize(usage_resource_.size() + n);
    usage_weight_.resize(usage_weight_.size() + n);
    usage_inc_pos_.resize(usage_inc_pos_.size() + n);
  }

  FlowMeta& m = flows_[slot];
  m.count = n;
  m.cap = rate_cap;
  m.alive = true;
  m.prev = tail_;
  m.next = kNoFlow;
  if (tail_ != kNoFlow) {
    flows_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = m.begin + i;
    const ResourceId r = usages[i].resource;
    usage_resource_[idx] = r;
    usage_weight_[idx] = usages[i].weight;
    usage_inc_pos_[idx] = incidence_[r].size();
    incidence_[r].push_back(IncidenceEntry{slot, idx});
  }

  if (options_.partition) {
    if (n == 0) {
      detached_dirty_ = true;
    } else {
      // Union the flow's resources into one component and dirty it: the
      // new flow changes every rate in the (merged) component.
      ResourceId root = find_root(usage_resource_[m.begin]);
      for (std::size_t i = 1; i < n; ++i) {
        root = unite(root, usage_resource_[m.begin + i]);
      }
      mark_dirty(root);
    }
  }

  ++live_flows_;
  bump_epoch();
  return slot;
}

FlowId FlowSolver::add_flow_over(const std::vector<ResourceId>& path,
                                 Gbps rate_cap) {
  std::vector<Usage> usages;
  usages.reserve(path.size());
  for (ResourceId r : path) usages.push_back(Usage{r, 1.0});
  return add_flow(std::move(usages), rate_cap);
}

Status FlowSolver::remove_flow(FlowId id) {
  if (id >= flows_.size() || !flows_[id].alive) {
    return Status{StatusCode::kUsage,
                  "remove_flow: no live flow #" + std::to_string(id)};
  }
  remove_flow_impl(id);
  bump_epoch();
  return Status{};
}

std::size_t FlowSolver::remove_flows(std::span<const FlowId> ids) {
  std::size_t removed = 0;
  for (const FlowId id : ids) {
    if (id >= flows_.size() || !flows_[id].alive) continue;
    remove_flow_impl(id);
    ++removed;
  }
  if (removed > 0) bump_epoch();
  return removed;
}

void FlowSolver::remove_flow_impl(FlowId id) {
  FlowMeta& m = flows_[id];
  if (options_.partition) {
    if (m.count > 0) {
      mark_dirty(find_root(usage_resource_[m.begin]));
    } else {
      detached_dirty_ = true;
    }
    // The union-find cannot split; count removals so solve() knows when
    // the component map is stale enough to rebuild.
    ++removed_since_rebuild_;
  }

  // Drop this flow's incidence entries; the back entry swapped into the
  // hole has its arena cell's position pointer fixed up.
  for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
    std::vector<IncidenceEntry>& inc = incidence_[usage_resource_[i]];
    const std::size_t pos = usage_inc_pos_[i];
    assert(pos < inc.size() && inc[pos].flow == id && inc[pos].usage == i);
    inc[pos] = inc.back();
    usage_inc_pos_[inc[pos].usage] = pos;
    inc.pop_back();
  }

  m.alive = false;
  if (m.prev != kNoFlow) {
    flows_[m.prev].next = m.next;
  } else {
    head_ = m.next;
  }
  if (m.next != kNoFlow) {
    flows_[m.next].prev = m.prev;
  } else {
    tail_ = m.prev;
  }
  m.prev = kNoFlow;
  m.next = kNoFlow;

  free_slots_.push_back(id);
  assert(live_flows_ > 0);
  --live_flows_;
  assert(live_flows_ + free_slots_.size() == flows_.size());
}

Status FlowSolver::set_flow_cap(FlowId id, Gbps rate_cap) {
  if (id >= flows_.size() || !flows_[id].alive) {
    return Status{StatusCode::kUsage,
                  "set_flow_cap: no live flow #" + std::to_string(id)};
  }
  assert(rate_cap >= 0.0);
  if (flows_[id].cap != rate_cap) {
    flows_[id].cap = rate_cap;
    if (options_.partition) {
      const FlowMeta& m = flows_[id];
      if (m.count > 0) {
        mark_dirty(find_root(usage_resource_[m.begin]));
      } else {
        detached_dirty_ = true;
      }
    }
    bump_epoch();
  }
  return Status{};
}

Gbps FlowSolver::flow_cap(FlowId id) const {
  assert(id < flows_.size());
  return flows_[id].cap;
}

bool FlowSolver::flow_alive(FlowId id) const {
  assert(id < flows_.size());
  return flows_[id].alive;
}

void FlowSolver::set_observer(obs::Context* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  m_solves_ = obs_->metrics.counter("solver.solves");
  m_rounds_ = obs_->metrics.counter("solver.rounds");
  m_rounds_hist_ = obs_->metrics.histogram(
      "solver.rounds_per_solve", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  m_solve_us_ = obs_->metrics.histogram(
      "solver.solve_us", {1.0, 10.0, 100.0, 1000.0, 10000.0});
  m_cache_hits_ = obs_->metrics.counter("solver.cache_hits");
  m_cache_misses_ = obs_->metrics.counter("solver.cache_misses");
  m_flows_scanned_ = obs_->metrics.counter("solver.flows_scanned");
  m_touches_ = obs_->metrics.counter("solver.resource_touches");
  m_components_ = obs_->metrics.gauge("solver.components");
  m_largest_comp_ = obs_->metrics.gauge("solver.largest_component_flows");
  m_rebuilds_ = obs_->metrics.counter("solver.component_rebuilds");
}

const std::vector<Gbps>& FlowSolver::solve() const {
  ++stats_.solve_calls;
  if (obs_ != nullptr) obs_->metrics.add(m_solves_);
  if (cache_valid_ && cached_epoch_ == epoch_) {
    ++stats_.cache_hits;
    if (obs_ != nullptr) obs_->metrics.add(m_cache_hits_);
    return rates_;
  }
  ++stats_.cache_misses;
  if (obs_ != nullptr) obs_->metrics.add(m_cache_misses_);
  solve_uncached();
  cache_valid_ = true;
  cached_epoch_ = epoch_;
  return rates_;
}

void FlowSolver::solve_uncached() const {
  obs::ScopedTimer timer(obs_ != nullptr ? &obs_->metrics : nullptr,
                         m_solve_us_);
#ifndef NDEBUG
  {
    // Live-flow accounting: the insertion-order list, the live counter
    // and the free-list must agree before every real solve.
    std::size_t walked = 0;
    for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
      assert(flows_[f].alive);
      ++walked;
    }
    assert(walked == live_flows_);
    assert(live_flows_ + free_slots_.size() == flows_.size());
  }
#endif

  ensure_size(rates_, flows_.size(), stats_.scratch_grows);
  if (options_.partition) {
    solve_partitioned();
    return;
  }

  std::fill(rates_.begin(), rates_.end(), 0.0);
  if (live_flows_ == 0) return;

  SolveScratch& s = prepare_scratch();
  if (s.worklist.capacity() < live_flows_) {
    ++s.scratch_grows;
    s.worklist.reserve(live_flows_);
  }

  // One span holding every live flow in insertion order (== the old
  // ascending-id order): solve_span then reproduces the historical
  // floating-point operation sequence exactly.
  s.worklist.clear();
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    s.worklist.push_back(f);
  }
  solve_span(s.worklist.data(), s.worklist.size(), s);
  record_solve_counters(s);
}

FlowSolver::SolveScratch& FlowSolver::prepare_scratch() const {
  SolveScratch& s = *scratch_;
  s.rounds = 0;
  s.flows_scanned = 0;
  s.resource_touches = 0;
  s.scratch_grows = 0;
  ensure_size(s.weight, resources_.size(), s.scratch_grows);
  ensure_size(s.residual, resources_.size(), s.scratch_grows);
  ensure_size(s.touch_stamp, resources_.size(), s.scratch_grows);
  ensure_size(s.cand_stamp, flows_.size(), s.scratch_grows);
  if (s.touched.capacity() < resources_.size()) {
    ++s.scratch_grows;
    s.touched.reserve(resources_.size());
  }
  return s;
}

void FlowSolver::record_solve_counters(const SolveScratch& s) const {
  stats_.rounds += s.rounds;
  stats_.flows_scanned += s.flows_scanned;
  stats_.resource_touches += s.resource_touches;
  stats_.scratch_grows += s.scratch_grows;
  if (obs_ != nullptr) {
    obs_->metrics.add(m_rounds_, static_cast<double>(s.rounds));
    obs_->metrics.observe(m_rounds_hist_, static_cast<double>(s.rounds));
    obs_->metrics.add(m_flows_scanned_,
                      static_cast<double>(s.flows_scanned));
    obs_->metrics.add(m_touches_,
                      static_cast<double>(s.resource_touches));
  }
}

void FlowSolver::solve_partitioned() const {
  if (need_rebuild_ ||
      (removed_since_rebuild_ >= kRebuildMinRemovals &&
       removed_since_rebuild_ * 2 >= live_flows_)) {
    rebuild_components();
  }

  // Removed flows report 0: the monolithic path zero-fills the whole
  // vector, but here clean components keep their cached slots, so only
  // the dead slots are reset.
  for (FlowId f : free_slots_) rates_[f] = 0.0;

  if (live_flows_ == 0) {
    for (ResourceId r : dirty_roots_) comp_dirty_[r] = 0;
    dirty_roots_.clear();
    all_dirty_ = false;
    detached_dirty_ = false;
    stats_.components = 0;
    stats_.dirty_components = 0;
    stats_.largest_component_flows = 0;
    if (obs_ != nullptr) {
      obs_->metrics.set(m_components_, 0.0);
      obs_->metrics.set(m_largest_comp_, 0.0);
    }
    return;
  }

  ensure_size(comp_stamp_, resources_.size(), stats_.scratch_grows);
  ensure_size(comp_flows_, resources_.size(), stats_.scratch_grows);
  ensure_size(bucket_slot_, resources_.size(), stats_.scratch_grows);

  // Bucket pass (serial): walk live flows once in insertion order,
  // counting components and collecting the dirty ones' flows. A bucket's
  // flow order is therefore insertion order, and bucket order is the
  // first-appearance order of dirty components — both pure functions of
  // the mutation history.
  const std::uint64_t tok = ++bucket_token_;
  std::size_t used = 0;  // dirty buckets this solve
  std::uint64_t components = 0;
  std::uint64_t largest = 0;
  std::size_t detached_count = 0;
  std::size_t detached_bucket = kNoBucket;
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    const FlowMeta& m = flows_[f];
    if (m.count == 0) {
      // Zero-usage flows (pure cap-limited) share one pseudo-component.
      ++detached_count;
      if (all_dirty_ || detached_dirty_) {
        if (detached_bucket == kNoBucket) {
          detached_bucket = used++;
          if (buckets_.size() < used) buckets_.emplace_back();
          buckets_[detached_bucket].flows.clear();
        }
        buckets_[detached_bucket].flows.push_back(f);
      }
      continue;
    }
    const ResourceId root = find_root(usage_resource_[m.begin]);
    if (comp_stamp_[root] != tok) {
      comp_stamp_[root] = tok;
      comp_flows_[root] = 0;
      ++components;
      if (all_dirty_ || comp_dirty_[root] != 0) {
        bucket_slot_[root] = used++;
        if (buckets_.size() < used) buckets_.emplace_back();
        buckets_[bucket_slot_[root]].flows.clear();
      } else {
        bucket_slot_[root] = kNoBucket;
      }
    }
    const std::size_t size = ++comp_flows_[root];
    if (size > largest) largest = size;
    if (bucket_slot_[root] != kNoBucket) {
      buckets_[bucket_slot_[root]].flows.push_back(f);
    }
  }
  if (detached_count > 0) ++components;

  SolveScratch& s = prepare_scratch();
  for (std::size_t i = 0; i < used; ++i) {
    solve_span(buckets_[i].flows.data(), buckets_[i].flows.size(), s);
  }

  for (ResourceId r : dirty_roots_) comp_dirty_[r] = 0;
  dirty_roots_.clear();
  all_dirty_ = false;
  detached_dirty_ = false;

  record_solve_counters(s);
  stats_.components = components;
  stats_.dirty_components = used;
  stats_.largest_component_flows = largest;
  if (obs_ != nullptr) {
    obs_->metrics.set(m_components_, static_cast<double>(components));
    obs_->metrics.set(m_largest_comp_, static_cast<double>(largest));
  }
}

void FlowSolver::solve_span(FlowId* flows, std::size_t n,
                            SolveScratch& s) const {
  if (n == 0) return;

  // Build per-resource weights walking the span in order, initializing
  // weight/residual lazily at first touch via the stamp so untouched
  // resources cost nothing.
  const std::uint64_t touch_token = ++s.stamp;
  s.touched.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const FlowId f = flows[k];
    rates_[f] = 0.0;
    const FlowMeta& m = flows_[f];
    for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
      const ResourceId r = usage_resource_[i];
      if (s.touch_stamp[r] != touch_token) {
        s.touch_stamp[r] = touch_token;
        s.weight[r] = 0.0;
        s.residual[r] = resources_[r].capacity;
        s.touched.push_back(r);
      }
      s.weight[r] += usage_weight_[i];
    }
  }

  std::size_t unfrozen = n;
  while (unfrozen > 0) {
    ++s.rounds;
    // Largest uniform rate increment delta all unfrozen flows can take.
    // min() over the touched set only: every other resource has exactly
    // zero weight, so the old full-resource scan excluded it too.
    double delta = std::numeric_limits<double>::infinity();
    for (ResourceId r : s.touched) {
      if (s.weight[r] > kWeightEps && std::isfinite(s.residual[r])) {
        delta =
            std::min(delta, std::max(s.residual[r], 0.0) / s.weight[r]);
      }
    }
    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      if (std::isfinite(flows_[f].cap)) {
        delta = std::min(delta, flows_[f].cap - rates_[f]);
      }
    }
    assert(std::isfinite(delta) &&
           "every flow needs a finite cap or a finite resource in its usages");
    delta = std::max(delta, 0.0);

    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      const FlowMeta& m = flows_[f];
      rates_[f] += delta;
      for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
        s.residual[usage_resource_[i]] -= delta * usage_weight_[i];
      }
      s.resource_touches += m.count;
    }
    s.flows_scanned += unfrozen;

    // Saturation pass: instead of materializing a saturated[] bitmap and
    // rescanning every unfrozen flow's usages, mark the flows incident
    // to each saturated resource as freeze candidates (the incidence
    // list is exactly the set of flows the old scan would have matched).
    const std::uint64_t round_token = ++s.stamp;
    for (ResourceId r : s.touched) {
      if (s.weight[r] > kWeightEps && std::isfinite(s.residual[r]) &&
          s.residual[r] <= kEps * std::max(1.0, resources_[r].capacity)) {
        for (const IncidenceEntry& e : incidence_[r]) {
          s.cand_stamp[e.flow] = round_token;
        }
      }
    }

    // Freeze pass, compacting the span in place. Processing stays in
    // insertion order so the weight-release subtractions happen in the
    // same floating-point order as the old per-id scan.
    std::size_t out = 0;
    bool any_frozen_this_round = false;
    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      const FlowMeta& m = flows_[f];
      const bool freeze =
          (std::isfinite(m.cap) && rates_[f] >= m.cap - kEps) ||
          s.cand_stamp[f] == round_token;
      if (freeze) {
        any_frozen_this_round = true;
        for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
          const ResourceId r = usage_resource_[i];
          s.weight[r] -= usage_weight_[i];
          if (s.weight[r] < kWeightEps) s.weight[r] = 0.0;
        }
      } else {
        flows[out++] = f;
      }
    }
    // Progress guarantee: a positive delta saturates something; a zero
    // delta means a cap/resource was already tight and those flows froze.
    if (!any_frozen_this_round) {
      assert(false && "flow solver failed to make progress");
      break;
    }
    unfrozen = out;
  }
}

Gbps FlowSolver::aggregate_rate() const {
  const std::vector<Gbps>& rates = solve();
  Gbps sum = 0.0;
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) sum += rates[f];
  return sum;
}

double FlowSolver::utilization(ResourceId id) const {
  assert(id < resources_.size());
  const Resource& res = resources_[id];
  if (!std::isfinite(res.capacity) || res.capacity <= 0.0) {
    return 0.0;
  }
  const std::vector<Gbps>& rates = solve();
  // Walks flow usage spans in insertion order (not the unordered
  // incidence list) so the sum accumulates in the historical order.
  double used = 0.0;
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    const FlowMeta& m = flows_[f];
    for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
      if (usage_resource_[i] == id) used += rates[f] * usage_weight_[i];
    }
  }
  return used / res.capacity;
}

}  // namespace numaio::sim
