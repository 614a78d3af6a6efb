#include "planner/estimator.h"

#include <algorithm>
#include <cassert>

#include "pisa/compile.h"
#include "stream/executor.h"
#include "util/flat_table.h"
#include "util/stats.h"
#include "util/ip.h"
#include "net/dns.h"

namespace sonata::planner {

using query::OpKind;
using query::Operator;
using query::StreamNode;
using query::Tuple;

InstrumentedResult run_instrumented(const StreamNode& node, std::span<const Tuple> tuples,
                                    const std::vector<Tuple>* front_filter_entries) {
  assert(node.kind == StreamNode::Kind::kSource);
  // The stream processor's own executor runs the window; its per-operator
  // counters are the switch-side tuple counts. At a chain head there are
  // no winners yet, so every filter_in table stays empty.
  stream::ChainExecutor chain(node);
  for (const Operator& op : node.ops) {
    if (op.kind == OpKind::kFilterIn && front_filter_entries) {
      chain.set_filter_entries(op.table_name, *front_filter_entries);
    }
  }
  // Only the counters are read, so a reduce-free chain's outputs are
  // dropped as they reach the chain end instead of piling up for a window.
  for (const Tuple& t : tuples) {
    chain.ingest(t, 0);
    chain.discard_outputs();
  }

  // Up to the first reduce `r`, packets flow one by one: n_after[k] is what
  // reached ops[k], and a distinct's key count is what it let through.
  const std::size_t n = node.ops.size();
  std::size_t r = 0;
  while (r < n && node.ops[r].kind != OpKind::kReduce) ++r;
  InstrumentedResult res;
  res.n_after.assign(n + 1, 0);
  for (std::size_t k = 0; k <= r; ++k) res.n_after[k] = chain.entered(k);
  for (std::size_t i = 0; i < r; ++i) {
    if (node.ops[i].kind == OpKind::kDistinct) res.stateful_keys[i] = chain.entered(i + 1);
  }
  if (r == n) return res;

  // The reduce holds its tuples until the window-end flush, which reports
  // one tuple per key; the switch may also run the folded threshold on
  // them, but nothing later (the rest stays zero-filled).
  (void)chain.end_window();
  res.n_after[r + 1] = res.stateful_keys[r] = chain.entered(r + 1);
  if (pisa::foldable_threshold(node, r + 1)) res.n_after[r + 2] = chain.entered(r + 2);
  return res;
}

namespace {

// Append `finest` if missing; sort ascending; drop anything beyond finest.
std::vector<int> normalize_levels(std::vector<int> levels, int finest) {
  levels.erase(std::remove_if(levels.begin(), levels.end(),
                              [&](int l) { return l <= 0 || l >= finest; }),
               levels.end());
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  levels.push_back(finest);
  return levels;
}

}  // namespace

CostEstimator::CostEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                             std::vector<int> ip_levels, std::vector<int> dns_levels,
                             double relax_margin)
    : query_(&q), windows_(&windows), relax_margin_(relax_margin) {
  const auto sources = q.sources();
  refinable_ = q.refinable() && !sources.empty();
  for (const auto* src : sources) {
    std::optional<RefinementKey> key;
    if (const auto found = find_refinement_key(*src)) {
      key = found;
    } else if (q.root()->kind == query::StreamNode::Kind::kJoin) {
      // Raw-packet sources of a join refine on the join key.
      for (const auto& jk : q.root()->join_keys) {
        if ((key = trace_refinement_key(*src, jk))) break;
      }
    }
    if (!key) {
      refinable_ = false;
      break;
    }
    keys_.push_back(std::move(*key));
  }
  if (refinable_) {
    // All sources must share one key kind (one chain per query, §4.2).
    for (const auto& k : keys_) refinable_ = refinable_ && k.is_dns == keys_.front().is_dns;
  }
  if (!refinable_) {
    keys_.clear();
    keys_.resize(sources.size());  // placeholders; never used
    levels_ = {kFinestIpLevel};
    relaxed_.resize(sources.size());
    return;
  }
  const bool dns = keys_.front().is_dns;
  levels_ = normalize_levels(dns ? std::move(dns_levels) : std::move(ip_levels),
                             dns ? kFinestDnsLevel : kFinestIpLevel);
  relaxed_.resize(sources.size());
  relaxed_pending_ = true;  // computed on the first coarse-level read
}

std::vector<std::vector<query::Value>> CostEstimator::satisfying_keys() const {
  std::vector<std::vector<query::Value>> satisfying(windows_->size());
  const auto key_col = keys_.empty() ? std::string{} : keys_.front().key_column;
  const auto out_idx = query_->root()->output_schema().index_of(key_col);
  if (out_idx) {
    for (std::size_t w = 0; w < windows_->size(); ++w) {
      stream::QueryExecutor exec(*query_);
      for (const Tuple& t : (*windows_)[w]) exec.ingest_source_tuple(t);
      for (const Tuple& out : exec.end_window()) satisfying[w].push_back(out.at(*out_idx));
    }
  }
  return satisfying;
}

void CostEstimator::compute_relaxed_thresholds() {
  const auto sources = query_->sources();

  // Which sources have a trailing threshold filter eligible for relaxation?
  struct TailInfo {
    std::size_t reduce_op = 0;
    bool has_threshold = false;
  };
  std::vector<TailInfo> tails(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto& ops = sources[s]->ops;
    for (std::size_t i = ops.size(); i-- > 0;) {
      if (ops[i].kind == OpKind::kReduce) {
        tails[s].reduce_op = i;
        tails[s].has_threshold = pisa::foldable_threshold(*sources[s], i + 1).has_value();
        break;
      }
    }
  }

  // Satisfying keys per window: run the original query end-to-end.
  const auto satisfying = satisfying_keys();

  // Helper: run a chain truncated at its last reduce (trailing filter
  // removed) so end_window() yields the raw (keys..., aggregate) rows.
  const auto truncated_at_reduce = [&](std::shared_ptr<StreamNode> node) {
    std::size_t reduce_idx = 0;
    for (std::size_t i = node->ops.size(); i-- > 0;) {
      if (node->ops[i].kind == OpKind::kReduce) {
        reduce_idx = i;
        break;
      }
    }
    node->ops.resize(reduce_idx + 1);
    const std::string err = query::validate_stream_node(*node);
    assert(err.empty());
    (void)err;
    return node;
  };

  // Coarsen the hierarchical component of a full reduce-key tuple.
  const auto coarsen_key = [](const RefinementKey& key, Tuple full_key, std::size_t kpos,
                              int level) {
    query::Value& v = full_key.values.at(kpos);
    if (key.is_dns) {
      v = query::Value{net::dns_name_prefix(v.as_string(), static_cast<std::size_t>(level))};
    } else {
      v = query::Value{static_cast<std::uint64_t>(
          util::ipv4_prefix(static_cast<std::uint32_t>(v.as_uint()), level))};
    }
    return full_key;
  };

  // For each source with a threshold and each coarse level: the minimum
  // coarse aggregate over the coarsened versions of the *fine rows that
  // both passed the source's own threshold and belong to a key satisfying
  // the full query*. Matching the full reduce-key tuple (not just the
  // hierarchical component) matters for multi-key reduces like Zorro's
  // (dIP, size-bucket): relaxing to the victim's rarest bucket would let
  // every prefix through.
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (!tails[s].has_threshold) continue;
    const RefinementKey& key = keys_[s];

    // Fine rows passing the original sub-query (with its threshold) whose
    // key column satisfies the full query — computed once per window.
    std::vector<std::vector<Tuple>> fine_rows(windows_->size());
    {
      const query::Schema& fine_schema = sources[s]->schemas[tails[s].reduce_op + 1];
      const auto fine_kidx = fine_schema.index_of(key.key_column);
      if (!fine_kidx) continue;
      for (std::size_t w = 0; w < windows_->size(); ++w) {
        if (satisfying[w].empty()) continue;
        util::FlatSet sat;
        sat.reserve(satisfying[w].size());
        for (const auto& v : satisfying[w]) sat.insert(Tuple{{v}});
        // Run the original chain up to and including the trailing filter.
        stream::ChainExecutor chain(*sources[s]);
        for (const Tuple& t : (*windows_)[w]) chain.ingest(t, 0);
        for (Tuple& out : chain.end_window()) {
          Tuple kt{{out.at(*fine_kidx)}};
          if (!sat.contains(kt)) continue;
          // Keep the full reduce key (all columns except the aggregate).
          out.values.pop_back();
          fine_rows[w].push_back(std::move(out));
        }
      }
    }

    if (std::all_of(fine_rows.begin(), fine_rows.end(),
                    [](const auto& rows) { return rows.empty(); })) {
      continue;
    }
    for (std::size_t li = 0; li + 1 < levels_.size(); ++li) {  // skip finest
      const int level = levels_[li];
      RefineOptions opts;
      opts.level = level;
      const auto refined = truncated_at_reduce(make_refined_node(*sources[s], key, opts));
      const auto kidx = refined->output_schema().index_of(key.key_column);
      if (!kidx) continue;

      std::optional<std::uint64_t> min_agg;
      for (std::size_t w = 0; w < windows_->size(); ++w) {
        if (fine_rows[w].empty()) continue;
        util::FlatSet coarse_satisfying;
        coarse_satisfying.reserve(fine_rows[w].size());
        for (const Tuple& row : fine_rows[w]) {
          coarse_satisfying.insert(coarsen_key(key, row, *kidx, level));
        }

        stream::ChainExecutor chain(*refined);
        for (const Tuple& t : (*windows_)[w]) chain.ingest(t, 0);
        for (const Tuple& out : chain.end_window()) {
          Tuple full_key = out;
          full_key.values.pop_back();  // drop the aggregate
          if (!coarse_satisfying.contains(full_key)) continue;
          const std::uint64_t agg = out.values.back().as_uint();
          min_agg = min_agg ? std::min(*min_agg, agg) : agg;
        }
      }
      // Scale by the margin so live windows with a little less traffic
      // than training still pass (and -1 so the training minimum itself
      // passes the strict `>`).
      if (min_agg) {
        const auto scaled = static_cast<std::uint64_t>(
            static_cast<double>(*min_agg) * relax_margin_);
        relaxed_[s][level] = scaled > 0 ? scaled - 1 : 0;
      }
    }
  }
}

std::optional<std::uint64_t> CostEstimator::relaxed_threshold(int source, int level) {
  if (level == finest_level()) return std::nullopt;
  if (relaxed_pending_) {
    relaxed_pending_ = false;
    compute_relaxed_thresholds();
  }
  const auto& m = relaxed_.at(static_cast<std::size_t>(source));
  const auto it = m.find(level);
  if (it == m.end()) return std::nullopt;
  return it->second;
}

const query::Query& CostEstimator::winner_query(int level) {
  auto it = winner_queries_.find(level);
  if (it == winner_queries_.end()) {
    const auto sources = query_->sources();
    std::vector<std::shared_ptr<StreamNode>> per_source;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (!has_stateful_op(*sources[s])) {
        per_source.push_back(nullptr);  // raw sources run at the finest level only
        continue;
      }
      RefineOptions opts;
      opts.level = level;
      opts.relaxed_threshold = relaxed_threshold(static_cast<int>(s), level);
      per_source.push_back(make_refined_node(*sources[s], keys_.at(s), opts));
    }
    it = winner_queries_.emplace(level, make_winner_query(*query_, level, per_source)).first;
  }
  return it->second;
}

const std::vector<Tuple>& CostEstimator::winners(int level, std::size_t w) {
  auto& per_window = winners_[level];
  if (per_window.empty()) {
    per_window.resize(windows_->size());
    const auto& lq = winner_query(level);
    const auto out_idx = lq.root()->output_schema().index_of(keys_.front().key_column);
    for (std::size_t wi = 0; wi < windows_->size(); ++wi) {
      stream::QueryExecutor exec(lq);
      for (const Tuple& t : (*windows_)[wi]) exec.ingest_source_tuple(t);
      util::FlatSet dedup;
      for (const Tuple& out : exec.end_window()) {
        if (!out_idx) continue;
        Tuple kt;
        kt.values.push_back(out.at(*out_idx));
        if (dedup.insert(kt)) per_window[wi].push_back(std::move(kt));
      }
    }
  }
  return per_window.at(w);
}

const TransitionCost& CostEstimator::transition(int source, int prev, int level) {
  const auto cache_key = std::make_tuple(source, prev, level);
  auto it = costs_.find(cache_key);
  if (it != costs_.end()) return it->second;

  const auto sources = query_->sources();
  const StreamNode& src = *sources.at(static_cast<std::size_t>(source));
  const RefinementKey& key = keys_.at(static_cast<std::size_t>(source));

  RefineOptions opts;
  opts.level = level;
  opts.prev_level = prev;
  opts.filter_table_name = "est";
  opts.relaxed_threshold = relaxed_threshold(source, level);
  auto refined = refinable_ ? make_refined_node(src, key, opts) : nullptr;
  const StreamNode& node = refined ? *refined : src;

  // Per-window costs, then medians.
  std::vector<std::vector<std::uint64_t>> n_samples(node.ops.size() + 1);
  std::map<std::size_t, std::vector<std::uint64_t>> key_samples;
  for (std::size_t w = 0; w < windows_->size(); ++w) {
    const std::vector<Tuple>* entries = nullptr;
    if (prev != kNoPrevLevel) entries = &winners(prev, w);
    const auto run = run_instrumented(node, (*windows_)[w], entries);
    for (std::size_t k = 0; k < run.n_after.size(); ++k) n_samples[k].push_back(run.n_after[k]);
    for (const auto& [op, keys] : run.stateful_keys) key_samples[op].push_back(keys);
  }

  TransitionCost cost;
  cost.n_after.reserve(n_samples.size());
  for (auto& s : n_samples) cost.n_after.push_back(util::median_u64(s));
  for (auto& [op, s] : key_samples) cost.stateful_keys[op] = util::median_u64(s);
  return costs_.emplace(cache_key, std::move(cost)).first->second;
}

}  // namespace sonata::planner
