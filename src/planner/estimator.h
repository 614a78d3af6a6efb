// Training-data cost estimation (paper §3.3 "Input" and §4.2, Figure 5).
//
// The planner replays historical windows through each query to estimate,
// per (source, refinement transition r_prev -> r, partition point k):
//   N_{q,t}: packet tuples the switch would send to the stream processor,
//   keys:    distinct keys per stateful operator (register sizing), and
// per (source, level): the relaxed threshold Th_r (the minimum coarse
// aggregate among keys that satisfy the original query — keeping every
// training positive, paper §4.1).
//
// Like Figure 5's exposition, transition costs use same-window winner sets
// (the paper assumes counts are stable across consecutive windows).
// Every replay runs the stream processor's own executors; the instrumented
// run reads a stream::ChainExecutor's per-operator counters entered(k).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "planner/refine.h"
#include "query/query.h"

namespace sonata::planner {

struct TransitionCost {
  // n_after[k]: tuples to the SP per window when ops[0..k) of the (refined)
  // chain run on the switch. Index 0 = every packet of the window. Valid
  // for k up to the semantic max prefix; entries beyond are zero-filled.
  std::vector<std::uint64_t> n_after;
  // Median distinct keys per stateful op index (register sizing input).
  std::map<std::size_t, std::uint64_t> stateful_keys;
};

// One training window's packets, pre-materialized to source tuples.
using TupleWindow = std::vector<query::Tuple>;

class CostEstimator {
 public:
  // `q` must be validated and outlive the estimator; `windows` are the
  // training windows (shared across queries); `ip_levels`/`dns_levels` are
  // the candidate refinement levels (finest appended if missing).
  // `relax_margin` scales the training-derived relaxed thresholds (paper
  // §4.1): 1.0 keeps exactly every training positive; smaller values leave
  // headroom for traffic variance between training and live windows.
  CostEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                std::vector<int> ip_levels, std::vector<int> dns_levels,
                double relax_margin = 0.5);

  // Dynamic refinement applies: the operator declared the query refinable
  // and every source traces a hierarchical key of one common kind.
  [[nodiscard]] bool refinable() const noexcept { return refinable_; }
  [[nodiscard]] const std::vector<RefinementKey>& keys() const noexcept { return keys_; }

  // Candidate levels, ascending, finest last. Single-element (finest) when
  // not refinable.
  [[nodiscard]] const std::vector<int>& levels() const noexcept { return levels_; }
  [[nodiscard]] int finest_level() const noexcept { return levels_.back(); }

  // Relaxed threshold for `source`'s trailing filter at `level`; nullopt at
  // the finest level or when the source has no trailing threshold filter.
  // The first coarse-level read computes every source's thresholds (plans
  // without refinement never pay for them).
  [[nodiscard]] std::optional<std::uint64_t> relaxed_threshold(int source, int level);

  // Winner keys at `level` for window `w`: the output keys of the winner
  // query (stateful sub-queries with relaxed thresholds; raw sources and
  // post-join operators excluded — see make_winner_query). These seed the
  // next refinement level's dynamic filters.

  // Cost of running `level` after `prev` (kNoPrevLevel at a chain head).
  const TransitionCost& transition(int source, int prev, int level);

  const std::vector<query::Tuple>& winners(int level, std::size_t w);

 private:
  void compute_relaxed_thresholds();
  const query::Query& winner_query(int level);
  // Satisfying finest-level key values per training window (key_column of
  // the original query's output).
  std::vector<std::vector<query::Value>> satisfying_keys() const;

  const query::Query* query_;
  const std::vector<TupleWindow>* windows_;
  double relax_margin_ = 0.5;
  bool refinable_ = false;
  std::vector<RefinementKey> keys_;
  std::vector<int> levels_;

  // relaxed_[source][level], filled on the first coarse-level read
  // (relaxed_pending_ until then)
  std::vector<std::map<int, std::uint64_t>> relaxed_;
  bool relaxed_pending_ = false;
  std::map<int, query::Query> winner_queries_;
  // winners_[level][window]
  std::map<int, std::vector<std::vector<query::Tuple>>> winners_;
  // costs_[(source, prev, level)]
  std::map<std::tuple<int, int, int>, TransitionCost> costs_;
};

// Instrumented single-window chain run (exposed for tests). Every filter_in
// holds `front_filter_entries` (none when null); n_after follows the
// TransitionCost contract; stateful_keys covers the first reduce and the
// distincts before it.
struct InstrumentedResult {
  std::vector<std::uint64_t> n_after;                 // size ops+1
  std::map<std::size_t, std::uint64_t> stateful_keys; // distinct keys per stateful op
};
InstrumentedResult run_instrumented(
    const query::StreamNode& node, std::span<const query::Tuple> tuples,
    const std::vector<query::Tuple>* front_filter_entries);

}  // namespace sonata::planner
