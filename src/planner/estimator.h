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
// Every replay runs the stream processor's own executors and reads a
// stream::ChainExecutor's per-operator counters entered(k). Each source's
// chain replays each training window once per level, and everything that
// replay determines is read off it:
//   * finest level: the original chain gives the head transition
//     (* -> finest) and, for a source with a trailing threshold, its
//     reports: the fine rows of the relaxed thresholds and, fed at the
//     chain end into the query, the satisfying keys;
//   * coarse level L: the chain up to its reduce (threshold removed) gives
//     the counters up to the reduce and the raw (keys..., aggregate) rows.
//     The rows give the relaxed threshold at L; fed after the reduce into
//     the real chain (threshold relaxed) they give the threshold's count
//     and the chain's outputs, which enter the winner query at the chain
//     end to give the level's winners;
//   * P -> L: which packets pass the dynamic filter (the winners at P) is
//     decided once per (source field, P, window) by the executor's own
//     filter_in; only those enter each (P, L) chain, after the filter.
// A quantity falls back to its own replay where this does not apply: a
// coarse chain with two reduces or operators after its threshold
// (relaxed threshold: the truncated chain; transition: the full chain),
// a source that has not replayed enters the satisfying or winner query
// with the window's packets, and a query with sketched state runs those
// two queries on the packets throughout (the replays keep exact state).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
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

  // Cost of running `level` after `prev` (kNoPrevLevel at a chain head).
  const TransitionCost& transition(int source, int prev, int level);

  // Winner keys at `level` for window `w`: the output keys of the winner
  // query (stateful sub-queries with relaxed thresholds; raw sources and
  // post-join operators excluded — see make_winner_query). These seed the
  // next refinement level's dynamic filters.
  const std::vector<query::Tuple>& winners(int level, std::size_t w);

 private:
  // Head transitions (no previous level). The finest level replays the
  // original chain; a coarse level replays the chain up to its reduce and
  // derives the relaxed threshold, the head transition and (for the winner
  // source) the level's winners from the one replay.
  void replay_finest(int source, int level);
  void replay_coarse(int source, int level);
  // The steps prev -> L (`level` and every candidate level above prev) of
  // the sources refining on `source`'s packet field, as far as not costed.
  void replay_steps(int source, int prev, int level);
  // Fine rows per threshold source, filled on the first coarse replay.
  void collect_fine_rows();
  // Satisfying finest-level key values per training window (key_column of
  // the original query's output).
  std::vector<std::vector<query::Value>> satisfying_keys() const;
  const query::Query& winner_query(int level);
  void compute_winners(int level);

  const query::Query* query_;
  const std::vector<TupleWindow>* windows_;
  std::vector<const query::StreamNode*> sources_;
  double relax_margin_ = 0.5;
  bool refinable_ = false;
  std::vector<RefinementKey> keys_;
  std::vector<int> levels_;
  // The query keeps exact state, as the estimator's chain replays do, so
  // their outputs can stand in for its sources' (a sketched query's
  // satisfying and winner keys replay the windows).
  bool exact_ = true;
  // Per source: a trailing threshold filter eligible for relaxation.
  std::vector<bool> has_threshold_;

  // relaxed_[source][level], set by that level's coarse replay (nullopt:
  // no training positive to relax to)
  std::vector<std::map<int, std::optional<std::uint64_t>>> relaxed_;
  // Finest-level outputs of threshold sources, kept from their finest
  // replay until the fine rows are collected.
  std::vector<std::vector<std::vector<query::Tuple>>> finest_outputs_;
  // fine_rows_[source][window]: the source's reports (aggregate dropped)
  // whose key satisfies the whole query.
  std::vector<std::vector<std::vector<query::Tuple>>> fine_rows_;
  bool fine_rows_collected_ = false;
  // coarse_outputs_[(level, source)][window]: a coarse replay's chain
  // outputs, kept until the level's winners are derived from them.
  std::map<std::pair<int, int>, std::vector<std::vector<query::Tuple>>> coarse_outputs_;
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
