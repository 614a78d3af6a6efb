// Shared chain-install machinery for the planners.
//
// A ChainInstaller places one query's refinement chain on top of a partial
// switch layout: greedy max-partition-with-backoff per pipeline, register
// sizing with the collision-overflow model, exact stage layout (C1-C5) as
// the feasibility oracle. It owns the per-query caches the search re-visits
// (refined nodes, semantic max partitions, register sizing, the resources
// of every (transition, partition), the Monte-Carlo overflow model), so
// both the joint branch-and-bound (planner.cc) and the incremental planner
// (incremental.cc) reuse identical state — and produce identical installs
// for identical inputs. An install lays out the partial layout once and
// probes each candidate partition against that stage fill (pisa::place).
//
// Installs can be constrained by per-tenant resource limits (InstallLimits):
// a budget caps the match-action tables and register bits one install may
// consume, and may forbid the partition-0 raw-mirror fallback — which makes
// rejection possible, and is what turns tenant budgets into real isolation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "planner/planner.h"

namespace sonata::planner {

[[nodiscard]] std::string filter_table_name(query::QueryId qid, int source, int level);

// Switch footprint of one install: the tenant-budget accounting unit.
struct Footprint {
  std::uint64_t tables = 0;         // match-action tables across stages
  std::uint64_t register_bits = 0;  // register memory across stateful tables
};

// Per-install resource constraints (defaults: unconstrained).
struct InstallLimits {
  std::uint64_t max_tables = ~std::uint64_t{0};
  std::uint64_t max_register_bits = ~std::uint64_t{0};
  bool allow_mirror = true;  // may a pipeline fall back to partition 0?
  // Pick the smallest feasible partition per pipeline instead of the
  // cheapest (used to compute the smallest budget that would admit).
  bool minimize_footprint = false;
};

struct Installed {
  PlannedQuery pq;
  std::uint64_t n = 0;  // SP tuple contribution, excluding the shared raw charge
  bool raw = false;     // some pipeline stays at partition 0 (raw mirror)
  Footprint footprint;  // resources this install appended
};

class ChainInstaller {
 public:
  // Owns a fresh estimator built over `windows` (the expensive, cacheable
  // part of planning: estimator construction replays every training window).
  ChainInstaller(const PlannerConfig& cfg, const query::Query& q,
                 const std::vector<TupleWindow>& windows, std::uint64_t window_packets);
  // Borrows `est` (EstimatorPool reuse); `est` must outlive the installer.
  ChainInstaller(const PlannerConfig& cfg, const query::Query& q, CostEstimator* est,
                 std::uint64_t window_packets);

  [[nodiscard]] CostEstimator& estimator() { return *est_; }
  [[nodiscard]] const query::Query& base() const noexcept { return *q_; }

  // Candidate refinement chains for the config's mode (finest last), in
  // enumerate_chains order (shorter first).
  [[nodiscard]] std::vector<std::vector<int>> chains();

  // The cheapest possible N for a chain assuming maximal partitions fit
  // (the admissible per-query bound of the branch-and-bound).
  [[nodiscard]] std::uint64_t optimistic_cost(const std::vector<int>& chain);

  // Install `chain` on top of `res`, appending the resources of every
  // partition >= 1 pipeline. Returns nullopt — with `res` restored — when
  // no placement satisfies `limits` (cannot happen with default limits:
  // partition 0 always fits). `force_all_sp` pins every pipeline to
  // partition 0 (the all-raw fallback layout).
  std::optional<Installed> install(const std::vector<int>& chain,
                                   std::vector<pisa::ProgramResources>& res, bool raw_already,
                                   bool force_all_sp, const InstallLimits& limits = {});

 private:
  std::size_t max_partition(int source, int prev, int level);
  std::shared_ptr<query::StreamNode> refined_node(int source, int prev, int level);
  std::vector<std::size_t> partition_choices(const query::StreamNode& node, std::size_t max_p,
                                             bool force_all_sp) const;
  std::uint64_t estimate_overflow_keys(std::uint64_t k, std::size_t n, int d);

  // Register sizing of one transition's stateful ops and the overflow
  // penalty (extra N) of each capped one: a function of the cached
  // TransitionCost and the config only.
  struct Sizing {
    std::map<std::size_t, pisa::RegisterSizing> registers;
    std::map<std::size_t, std::uint64_t> overflow_extra;  // op -> extra N
  };
  const Sizing& sizing(int source, int prev, int level);
  const pisa::ProgramResources& resources(int source, int prev, int level, std::size_t p);

  const PlannerConfig* cfg_;
  const query::Query* q_;
  std::unique_ptr<CostEstimator> owned_;
  CostEstimator* est_;
  std::uint64_t window_packets_ = 0;

  std::map<std::tuple<int, int, int>, std::shared_ptr<query::StreamNode>> node_cache_;
  std::map<std::tuple<int, int, int>, std::size_t> max_partition_cache_;
  std::map<std::tuple<int, int, int>, Sizing> sizing_cache_;
  std::map<std::tuple<int, int, int, std::size_t>, pisa::ProgramResources> resource_cache_;
  std::map<std::tuple<std::uint64_t, std::size_t, int>, std::uint64_t> overflow_cache_;
};

// Build the executable plan from chosen installs: stage layout, per-level
// exec queries (winner queries at coarse levels, the full tree at the
// finest) and source remaps. Clears any stale exec state first, so a stored
// PlannedQuery can be re-assembled after plan mutations.
[[nodiscard]] Plan assemble_plan(const PlannerConfig& cfg, std::vector<PlannedQuery> queries,
                                 std::vector<pisa::ProgramResources> resources, bool raw_mirror,
                                 std::uint64_t window_packets, std::uint64_t objective);

}  // namespace sonata::planner
