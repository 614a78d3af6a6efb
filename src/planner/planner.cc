#include "planner/planner.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "obs/metrics.h"
#include "obs/tracing.h"
#include "planner/install.h"
#include "util/log.h"
#include "util/stats.h"

namespace sonata::planner {

using pisa::ProgramResources;
using query::Query;

std::string_view to_string(PlanMode mode) noexcept {
  switch (mode) {
    case PlanMode::kSonata: return "Sonata";
    case PlanMode::kAllSP: return "All-SP";
    case PlanMode::kFilterDP: return "Filter-DP";
    case PlanMode::kMaxDP: return "Max-DP";
    case PlanMode::kFixRef: return "Fix-REF";
  }
  return "?";
}

std::vector<TupleWindow> materialize_windows(std::span<const net::Packet> packets,
                                             util::Nanos window) {
  std::vector<TupleWindow> out;
  std::size_t begin = 0;
  while (begin < packets.size()) {
    const std::uint64_t idx = util::window_index(packets[begin].ts, window);
    TupleWindow tuples;
    std::size_t end = begin;
    while (end < packets.size() && util::window_index(packets[end].ts, window) == idx) ++end;
    tuples.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      tuples.push_back(query::materialize_tuple(packets[i]));
    }
    out.push_back(std::move(tuples));
    begin = end;
  }
  return out;
}

namespace {

// Working context for one joint plan: branch-and-bound over per-query
// refinement chains, with the shared ChainInstaller doing each greedy
// install (so the incremental planner reuses identical install state).
class PlanBuilder {
 public:
  PlanBuilder(const PlannerConfig& cfg, std::span<const Query* const> queries,
              std::span<ChainInstaller* const> installers, std::uint64_t window_packets)
      : cfg_(cfg), queries_(queries), installers_(installers), window_packets_(window_packets) {}

  Plan run() {
    // The search (candidate costing, which replays training windows on
    // first use, then branch-and-bound) and the assembly are the two spans
    // of planning; the node count is published for the same reason.
    const bool tracing = obs::TraceRecorder::global().enabled();
    const std::uint64_t search_start = tracing ? obs::now_ns() : 0;

    // Candidate chains per query.
    std::vector<std::vector<std::vector<int>>> candidates(queries_.size());
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      candidates[qi] = installers_[qi]->chains();
    }

    // Optimistic (contention-free) cost per candidate, for ordering and
    // for the admissible bound.
    std::vector<std::vector<std::uint64_t>> optimistic(queries_.size());
    std::vector<std::uint64_t> min_cost(queries_.size());
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      std::uint64_t best = ~std::uint64_t{0};
      for (const auto& chain : candidates[qi]) {
        const std::uint64_t c = installers_[qi]->optimistic_cost(chain);
        optimistic[qi].push_back(c);
        best = std::min(best, c);
      }
      min_cost[qi] = best;
      // Sort candidates by optimistic cost (stable: shorter chains first on
      // ties, from enumerate_chains' ordering).
      std::vector<std::size_t> order(candidates[qi].size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return optimistic[qi][a] < optimistic[qi][b];
      });
      std::vector<std::vector<int>> sorted_chains;
      std::vector<std::uint64_t> sorted_costs;
      for (std::size_t i : order) {
        sorted_chains.push_back(std::move(candidates[qi][i]));
        sorted_costs.push_back(optimistic[qi][i]);
      }
      candidates[qi] = std::move(sorted_chains);
      optimistic[qi] = std::move(sorted_costs);
    }
    // Suffix sums of per-query minima for the bound.
    std::vector<std::uint64_t> suffix_min(queries_.size() + 1, 0);
    for (std::size_t qi = queries_.size(); qi-- > 0;) {
      suffix_min[qi] = suffix_min[qi + 1] + min_cost[qi];
    }

    // Branch and bound over install costs, each depth on the stage fill
    // its prefix left; the best chains are installed for real afterwards
    // (an install depends only on its prefix, so these are the installs
    // the search costed).
    best_objective_ = ~std::uint64_t{0};
    std::vector<pisa::StageFill> fills(queries_.size() + 1, pisa::StageFill(cfg_.switch_config));
    std::vector<std::size_t> chosen;
    nodes_ = 0;
    dfs(0, candidates, suffix_min, fills, chosen, 0, false);
    assert(best_chains_.size() == queries_.size());
    std::vector<ProgramResources> res;
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      auto inst = installers_[qi]->install(candidates[qi][best_chains_[qi]], res, best_raw_,
                                           /*force_all_sp=*/false);
      assert(inst.has_value());
      best_raw_ = best_raw_ || inst->raw;
      best_.push_back(std::move(inst->pq));
    }
    best_resources_ = std::move(res);

    // The all-raw plan (mirror every packet once, all queries at the SP) is
    // always feasible and costs one window of packets. The per-pipeline
    // greedy can be myopic — each query individually prefers streaming a
    // filtered prefix over starting the shared raw mirror — so cap the
    // result with this fallback, as the ILP would (All-SP mode *is* this
    // plan, so it is unaffected).
    if (cfg_.mode != PlanMode::kAllSP && window_packets_ < best_objective_) {
      res.clear();
      std::vector<PlannedQuery> fallback;
      std::uint64_t n = 0;
      bool raw = false;
      for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
        auto inst = installers_[qi]->install({installers_[qi]->estimator().finest_level()}, res,
                                            raw, /*force_all_sp=*/true);
        assert(inst.has_value());
        n += inst->n;
        raw = raw || inst->raw;
        fallback.push_back(std::move(inst->pq));
      }
      best_objective_ = n + (raw ? window_packets_ : 0);
      best_ = std::move(fallback);
      best_resources_ = std::move(res);
      best_raw_ = raw;
      SONATA_INFO("planner", "greedy plan beaten by the all-raw fallback; using All-SP layout");
    }

    static obs::Gauge& search_nodes =
        obs::Registry::global().gauge("sonata_plan_search_nodes");
    search_nodes.set(static_cast<std::int64_t>(nodes_));
    const std::uint64_t assemble_start = tracing ? obs::now_ns() : 0;
    if (tracing) {
      obs::TraceRecorder::global().record("plan.search", "planner", search_start,
                                          assemble_start - search_start);
    }
    Plan plan = assemble_plan(cfg_, std::move(best_), std::move(best_resources_), best_raw_,
                              window_packets_, best_objective_);
    if (tracing) {
      obs::TraceRecorder::global().record("plan.assemble", "planner", assemble_start,
                                          obs::now_ns() - assemble_start);
    }
    return plan;
  }

 private:
  void dfs(std::size_t qi, const std::vector<std::vector<std::vector<int>>>& candidates,
           const std::vector<std::uint64_t>& suffix_min, std::vector<pisa::StageFill>& fills,
           std::vector<std::size_t>& chosen, std::uint64_t n, bool raw) {
    if (nodes_ > cfg_.search_node_cap && !best_chains_.empty()) return;
    ++nodes_;
    const std::uint64_t objective_so_far = n + (raw ? window_packets_ : 0);
    if (objective_so_far + suffix_min[qi] >= best_objective_) return;
    if (qi == queries_.size()) {
      best_objective_ = objective_so_far;
      best_chains_ = chosen;
      return;
    }
    for (std::size_t ci = 0; ci < candidates[qi].size(); ++ci) {
      fills[qi + 1] = fills[qi];
      auto inst = installers_[qi]->install_cost(candidates[qi][ci], fills[qi + 1], raw);
      assert(inst.has_value());  // unlimited installs always place (partition 0 fits)
      chosen.push_back(ci);
      dfs(qi + 1, candidates, suffix_min, fills, chosen, n + inst->n, raw || inst->raw);
      chosen.pop_back();
      if (nodes_ > cfg_.search_node_cap && !best_chains_.empty()) return;
    }
  }

  const PlannerConfig& cfg_;
  std::span<const Query* const> queries_;
  std::span<ChainInstaller* const> installers_;
  std::uint64_t window_packets_ = 0;

  std::uint64_t best_objective_ = ~std::uint64_t{0};
  std::vector<std::size_t> best_chains_;  // candidate index per query
  std::vector<PlannedQuery> best_;
  std::vector<ProgramResources> best_resources_;
  bool best_raw_ = false;
  std::uint64_t nodes_ = 0;
};

}  // namespace

std::string Plan::summary() const {
  std::string out = "plan[" + std::string(to_string(mode)) + "] v" + std::to_string(version) +
                    " est_tuples/window=" + std::to_string(est_total_tuples) +
                    (raw_mirror ? " (+raw mirror)" : "") + "\n";
  for (const auto& pq : queries) {
    out += "  " + pq.base->name() + ": chain=[";
    for (std::size_t i = 0; i < pq.chain.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(pq.chain[i]);
    }
    out += "] est=" + std::to_string(pq.est_tuples) + "\n";
    for (const auto& p : pq.pipelines) {
      out += "    s" + std::to_string(p.source_index) + " L" +
             (p.prev_level == kNoPrevLevel ? std::string("*") : std::to_string(p.prev_level)) +
             "->" + std::to_string(p.level) + " partition=" + std::to_string(p.partition) + "/" +
             std::to_string(p.node->ops.size()) + " est=" + std::to_string(p.est_tuples) + "\n";
    }
  }
  return out;
}

std::uint64_t median_window_packets(const std::vector<TupleWindow>& windows) {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(windows.size());
  for (const auto& w : windows) sizes.push_back(w.size());
  return util::median_u64(sizes);
}

Plan plan_joint(const PlannerConfig& cfg, std::span<const query::Query* const> queries,
                std::span<ChainInstaller* const> installers, std::uint64_t window_packets) {
  assert(queries.size() == installers.size());
  PlanBuilder builder(cfg, queries, installers, window_packets);
  return builder.run();
}

Plan Planner::plan(const std::vector<Query>& queries, std::span<const net::Packet> training) {
  const auto windows = materialize_windows(training, cfg_.window);
  return plan_windows(queries, windows);
}

EstimatorPool::EstimatorPool(const std::vector<Query>& queries,
                             const std::vector<TupleWindow>& windows,
                             std::vector<int> ip_levels, std::vector<int> dns_levels,
                             double relax_margin) {
  for (const auto& q : queries) {
    estimators_.emplace_back(q, windows, ip_levels, dns_levels, relax_margin);
  }
}

Plan Planner::plan_windows(const std::vector<Query>& queries,
                           const std::vector<TupleWindow>& windows, EstimatorPool* pool) {
  SONATA_INFO("planner", "planning %zu queries over %zu training windows (mode=%s)",
              queries.size(), windows.size(), std::string(to_string(cfg_.mode)).c_str());
  const std::uint64_t window_packets = median_window_packets(windows);
  std::deque<ChainInstaller> owned;
  std::vector<ChainInstaller*> installers;
  std::vector<const Query*> qptrs;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (pool) {
      owned.emplace_back(cfg_, queries[qi], &pool->at(qi), window_packets);
    } else {
      owned.emplace_back(cfg_, queries[qi], windows, window_packets);
    }
    installers.push_back(&owned.back());
    qptrs.push_back(&queries[qi]);
  }
  Plan plan = plan_joint(cfg_, qptrs, installers, window_packets);
  SONATA_INFO("planner", "%s", plan.summary().c_str());
  return plan;
}

}  // namespace sonata::planner
