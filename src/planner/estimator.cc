#include "planner/estimator.h"

#include <algorithm>
#include <cassert>

#include "net/dns.h"
#include "pisa/compile.h"
#include "stream/executor.h"
#include "util/flat_table.h"
#include "util/ip.h"
#include "util/stats.h"

namespace sonata::planner {

using query::OpKind;
using query::Operator;
using query::StreamNode;
using query::Tuple;

namespace {

constexpr std::size_t kNoReduce = static_cast<std::size_t>(-1);

std::size_t last_reduce(const StreamNode& node) {
  for (std::size_t i = node.ops.size(); i-- > 0;) {
    if (node.ops[i].kind == OpKind::kReduce) return i;
  }
  return kNoReduce;
}

// Every filter_in of `node` holds `entries` (none when null).
void load_filters(stream::ChainExecutor& chain, const StreamNode& node,
                  const std::vector<Tuple>* entries) {
  if (entries == nullptr) return;
  for (const Operator& op : node.ops) {
    if (op.kind == OpKind::kFilterIn) chain.set_filter_entries(op.table_name, *entries);
  }
}

// Close the window of `chain`, which ran `node` over one training window,
// and read the TransitionCost counters off it. The chain's outputs go to
// `outputs` when it is non-null.
InstrumentedResult close_and_count(const StreamNode& node, stream::ChainExecutor& chain,
                                   std::vector<Tuple>* outputs) {
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
  if (r == n && outputs == nullptr) return res;

  // The reduce holds its tuples until the window-end flush, which reports
  // one tuple per key; the switch may also run the folded threshold on
  // them, but nothing later (the rest stays zero-filled).
  std::vector<Tuple> out = chain.end_window();
  if (outputs != nullptr) *outputs = std::move(out);
  if (r == n) return res;
  res.n_after[r + 1] = res.stateful_keys[r] = chain.entered(r + 1);
  if (pisa::foldable_threshold(node, r + 1)) res.n_after[r + 2] = chain.entered(r + 2);
  return res;
}

// Per-window costs, then medians.
TransitionCost median_cost(const std::vector<InstrumentedResult>& runs) {
  TransitionCost cost;
  std::map<std::size_t, std::vector<std::uint64_t>> key_samples;
  for (const auto& run : runs) {
    for (const auto& [op, keys] : run.stateful_keys) key_samples[op].push_back(keys);
  }
  const std::size_t n = runs.empty() ? 0 : runs.front().n_after.size();
  std::vector<std::uint64_t> samples;
  for (std::size_t k = 0; k < n; ++k) {
    samples.clear();
    for (const auto& run : runs) samples.push_back(run.n_after[k]);
    cost.n_after.push_back(util::median_u64(samples));
  }
  for (auto& [op, s] : key_samples) cost.stateful_keys[op] = util::median_u64(s);
  return cost;
}

// The distinct `idx` column values of `outputs`, in output order.
std::vector<Tuple> distinct_keys(const std::vector<Tuple>& outputs,
                                 std::optional<std::size_t> idx) {
  std::vector<Tuple> keys;
  if (!idx) return keys;
  util::FlatSet dedup;
  for (const Tuple& out : outputs) {
    Tuple kt;
    kt.values.push_back(out.at(*idx));
    if (dedup.insert(kt)) keys.push_back(std::move(kt));
  }
  return keys;
}

// One training window of `q`. A source whose chain outputs `ready[i]` holds
// (an estimator replay already ran its chain) enters them at its chain end;
// every other source replays the window's packets from op 0.
std::vector<Tuple> run_window(const query::Query& q, const TupleWindow& window,
                              const std::vector<const std::vector<Tuple>*>& ready) {
  stream::QueryExecutor exec(q);
  const auto sources = q.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const int index = static_cast<int>(i);
    if (ready[i] != nullptr) {
      for (const Tuple& t : *ready[i]) exec.ingest(index, t, sources[i]->ops.size());
    } else {
      for (const Tuple& t : window) exec.ingest(index, t, 0);
    }
  }
  return exec.end_window();
}

// Coarsen the hierarchical component of a full reduce-key tuple.
Tuple coarsen_key(const RefinementKey& key, Tuple full_key, std::size_t kpos, int level) {
  query::Value& v = full_key.values.at(kpos);
  if (key.is_dns) {
    v = query::Value{net::dns_name_prefix(v.as_string(), static_cast<std::size_t>(level))};
  } else {
    v = query::Value{static_cast<std::uint64_t>(
        util::ipv4_prefix(static_cast<std::uint32_t>(v.as_uint()), level))};
  }
  return full_key;
}

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

InstrumentedResult run_instrumented(const StreamNode& node, std::span<const Tuple> tuples,
                                    const std::vector<Tuple>* front_filter_entries) {
  assert(node.kind == StreamNode::Kind::kSource);
  // The stream processor's own executor runs the window; its per-operator
  // counters are the switch-side tuple counts. At a chain head there are
  // no winners yet, so every filter_in table stays empty.
  stream::ChainExecutor chain(node);
  load_filters(chain, node, front_filter_entries);
  // Only the counters are read, so a reduce-free chain's outputs are
  // dropped as they reach the chain end instead of piling up for a window.
  for (const Tuple& t : tuples) {
    chain.ingest(t, 0);
    chain.discard_outputs();
  }
  return close_and_count(node, chain, nullptr);
}

CostEstimator::CostEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                             std::vector<int> ip_levels, std::vector<int> dns_levels,
                             double relax_margin)
    : query_(&q), windows_(&windows), relax_margin_(relax_margin),
      exact_(!q.state_spec().sketch()) {
  const auto sources = q.sources();
  sources_.assign(sources.begin(), sources.end());
  refinable_ = q.refinable() && !sources_.empty();
  for (const auto* src : sources_) {
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
  relaxed_.resize(sources_.size());
  has_threshold_.assign(sources_.size(), false);
  finest_outputs_.resize(sources_.size());
  fine_rows_.resize(sources_.size());
  if (!refinable_) {
    keys_.clear();
    keys_.resize(sources_.size());  // placeholders; never used
    levels_ = {kFinestIpLevel};
    return;
  }
  const bool dns = keys_.front().is_dns;
  levels_ = normalize_levels(dns ? std::move(dns_levels) : std::move(ip_levels),
                             dns ? kFinestDnsLevel : kFinestIpLevel);

  // Which sources have a trailing threshold filter eligible for relaxation?
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const std::size_t r = last_reduce(*sources_[s]);
    has_threshold_[s] = r != kNoReduce && pisa::foldable_threshold(*sources_[s], r + 1);
  }
}

void CostEstimator::replay_finest(int source, int level) {
  const auto s = static_cast<std::size_t>(source);
  const StreamNode& src = *sources_.at(s);
  // A threshold source keeps its (few) reports for the fine rows a coarse
  // level's relaxed threshold is computed from.
  const bool keep = levels_.size() > 1 && has_threshold_[s] && !fine_rows_collected_;
  if (keep) finest_outputs_[s].assign(windows_->size(), {});
  std::vector<InstrumentedResult> runs;
  for (std::size_t w = 0; w < windows_->size(); ++w) {
    stream::ChainExecutor chain(src);
    for (const Tuple& t : (*windows_)[w]) {
      chain.ingest(t, 0);
      chain.discard_outputs();
    }
    runs.push_back(close_and_count(src, chain, keep ? &finest_outputs_[s][w] : nullptr));
  }
  costs_.emplace(std::make_tuple(source, kNoPrevLevel, level), median_cost(runs));
}

std::vector<std::vector<query::Value>> CostEstimator::satisfying_keys() const {
  std::vector<std::vector<query::Value>> satisfying(windows_->size());
  const auto out_idx = query_->root()->output_schema().index_of(keys_.front().key_column);
  if (!out_idx) return satisfying;
  for (std::size_t w = 0; w < windows_->size(); ++w) {
    // Threshold sources enter with their finest replay's outputs.
    std::vector<const std::vector<Tuple>*> ready(sources_.size(), nullptr);
    for (std::size_t s = 0; exact_ && s < sources_.size(); ++s) {
      if (!finest_outputs_[s].empty()) ready[s] = &finest_outputs_[s][w];
    }
    for (const Tuple& out : run_window(*query_, (*windows_)[w], ready)) {
      satisfying[w].push_back(out.at(*out_idx));
    }
  }
  return satisfying;
}

void CostEstimator::collect_fine_rows() {
  if (fine_rows_collected_) return;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const auto head = std::make_tuple(static_cast<int>(s), kNoPrevLevel, finest_level());
    if (has_threshold_[s] && !costs_.contains(head)) {
      replay_finest(static_cast<int>(s), finest_level());
    }
  }
  const auto satisfying = satisfying_keys();
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (!has_threshold_[s]) continue;
    // The source's reports (past its own threshold) whose key column
    // satisfies the whole query, with the aggregate dropped.
    const StreamNode& src = *sources_[s];
    const auto fine_kidx = src.schemas[last_reduce(src) + 1].index_of(keys_[s].key_column);
    fine_rows_[s].resize(windows_->size());
    for (std::size_t w = 0; fine_kidx && w < windows_->size(); ++w) {
      if (satisfying[w].empty()) continue;
      util::FlatSet sat;
      sat.reserve(satisfying[w].size());
      for (const auto& v : satisfying[w]) sat.insert(Tuple{{v}});
      for (Tuple& out : finest_outputs_[s][w]) {
        if (!sat.contains(Tuple{{out.at(*fine_kidx)}})) continue;
        out.values.pop_back();
        fine_rows_[s][w].push_back(std::move(out));
      }
    }
    finest_outputs_[s] = {};
  }
  fine_rows_collected_ = true;
}

void CostEstimator::replay_coarse(int source, int level) {
  const auto s = static_cast<std::size_t>(source);
  const StreamNode& src = *sources_.at(s);
  const RefinementKey& key = keys_.at(s);
  const std::size_t n_windows = windows_->size();
  RefineOptions opts;
  opts.level = level;
  const auto plain = make_refined_node(src, key, opts);  // the original threshold
  const std::size_t n = plain->ops.size();
  const std::size_t r = last_reduce(*plain);

  // A chain whose one reduce is followed by nothing but its foldable
  // threshold shares one replay: the prefix through the reduce yields the
  // counters up to the reduce and its rows, and the rows alone then decide
  // the threshold's count and the level's winners.
  bool shared = r != kNoReduce &&
                (r + 1 == n || (r + 2 == n && pisa::foldable_threshold(*plain, r + 1)));
  for (std::size_t i = 0; shared && i < r; ++i) shared = plain->ops[i].kind != OpKind::kReduce;

  // The relaxed threshold is the minimum coarse aggregate among the rows
  // whose full reduce key coarsens a fine row: a key satisfying the whole
  // query. Matching the full key (not just the hierarchical component)
  // matters for multi-key reduces like Zorro's (dIP, size-bucket):
  // relaxing to the victim's rarest bucket would let every prefix through.
  bool relax = false;
  if (has_threshold_[s]) {
    collect_fine_rows();
    relax = std::any_of(fine_rows_[s].begin(), fine_rows_[s].end(),
                        [](const auto& rows) { return !rows.empty(); });
  }

  // Replay the chain truncated after its last reduce (trailing filter
  // removed): its window-end rows are the raw (keys..., aggregate) rows. A
  // shared chain keeps them for its real threshold.
  std::vector<InstrumentedResult> runs(n_windows);
  std::vector<std::vector<Tuple>> kept(n_windows);
  std::optional<std::uint64_t> relaxed;
  if (shared || relax) {
    auto truncated = plain;
    if (r + 1 < n) {
      truncated = std::make_shared<StreamNode>(*plain);
      truncated->ops.resize(r + 1);
      const std::string err = query::validate_stream_node(*truncated);
      assert(err.empty());
      (void)err;
    }
    const auto kidx = truncated->output_schema().index_of(key.key_column);
    std::optional<std::uint64_t> min_agg;
    for (std::size_t w = 0; w < n_windows; ++w) {
      {
        stream::ChainExecutor chain(*truncated);
        for (const Tuple& t : (*windows_)[w]) {
          chain.ingest(t, 0);
          chain.discard_outputs();
        }
        runs[w] = close_and_count(*truncated, chain, &kept[w]);
      }
      if (relax && kidx && !fine_rows_[s][w].empty()) {
        util::FlatSet coarse_satisfying;
        coarse_satisfying.reserve(fine_rows_[s][w].size());
        for (const Tuple& row : fine_rows_[s][w]) {
          coarse_satisfying.insert(coarsen_key(key, row, *kidx, level));
        }
        for (Tuple& row : kept[w]) {
          // Drop the aggregate for the lookup, then put it back.
          query::Value agg = std::move(row.values.back());
          row.values.pop_back();
          if (coarse_satisfying.contains(row)) {
            min_agg = min_agg ? std::min(*min_agg, agg.as_uint()) : agg.as_uint();
          }
          row.values.push_back(std::move(agg));
        }
      }
      if (!shared) kept[w] = {};
    }
    // Scale by the margin so live windows with a little less traffic
    // than training still pass (and -1 so the training minimum itself
    // passes the strict `>`).
    if (min_agg) {
      const auto scaled =
          static_cast<std::uint64_t>(static_cast<double>(*min_agg) * relax_margin_);
      relaxed = scaled > 0 ? scaled - 1 : 0;
    }
  }
  if (has_threshold_[s]) relaxed_[s][level] = relaxed;

  bool derive_winners = false;
  auto node = plain;
  if (relaxed) {
    opts.relaxed_threshold = relaxed;
    node = make_refined_node(src, key, opts);
  }
  if (shared) {
    // The rows enter the real chain after its reduce. Its outputs are what
    // the winner query's copy of this chain outputs: they are kept for the
    // level's winners.
    const bool keep = exact_ && !winners_.contains(level);
    std::vector<std::vector<Tuple>> outputs(keep ? n_windows : 0);
    for (std::size_t w = 0; w < n_windows; ++w) {
      stream::ChainExecutor tail(*node);
      tail.ingest_batch(kept[w], r + 1);
      kept[w] = {};
      std::vector<Tuple> out = tail.end_window();
      if (keep) outputs[w] = std::move(out);
      runs[w].n_after.resize(n + 1, 0);
      if (r + 1 < n) runs[w].n_after[r + 2] = tail.entered(r + 2);
    }
    if (keep) coarse_outputs_.emplace(std::make_pair(level, source), std::move(outputs));
    derive_winners = keep;
  } else {
    for (std::size_t w = 0; w < n_windows; ++w) {
      runs[w] = run_instrumented(*node, (*windows_)[w], nullptr);
    }
  }
  costs_.emplace(std::make_tuple(source, kNoPrevLevel, level), median_cost(runs));

  // The level's winners are read next: derive them, and drop the kept
  // outputs, once every stateful source's are in.
  const auto remap = winner_source_remap(*query_);
  for (std::size_t i = 0; derive_winners && i < sources_.size(); ++i) {
    derive_winners = remap[i] < 0 ||
                     coarse_outputs_.contains(std::make_pair(level, static_cast<int>(i)));
  }
  if (derive_winners) compute_winners(level);
}

std::optional<std::uint64_t> CostEstimator::relaxed_threshold(int source, int level) {
  if (!refinable_ || level == finest_level()) return std::nullopt;
  const auto s = static_cast<std::size_t>(source);
  if (!has_threshold_.at(s) || std::find(levels_.begin(), levels_.end(), level) == levels_.end()) {
    return std::nullopt;
  }
  auto it = relaxed_[s].find(level);
  if (it == relaxed_[s].end()) {
    replay_coarse(source, level);
    it = relaxed_[s].find(level);
  }
  return it->second;
}

const query::Query& CostEstimator::winner_query(int level) {
  auto it = winner_queries_.find(level);
  if (it == winner_queries_.end()) {
    std::vector<std::shared_ptr<StreamNode>> per_source;
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      if (!has_stateful_op(*sources_[s])) {
        per_source.push_back(nullptr);  // raw sources run at the finest level only
        continue;
      }
      RefineOptions opts;
      opts.level = level;
      opts.relaxed_threshold = relaxed_threshold(static_cast<int>(s), level);
      per_source.push_back(make_refined_node(*sources_[s], keys_.at(s), opts));
    }
    it = winner_queries_.emplace(level, make_winner_query(*query_, level, per_source)).first;
  }
  return it->second;
}

const std::vector<Tuple>& CostEstimator::winners(int level, std::size_t w) {
  if (!winners_.contains(level)) compute_winners(level);
  return winners_.at(level).at(w);
}

void CostEstimator::compute_winners(int level) {
  // The winner query runs each stateful source's chain as that source's
  // coarse replay did: a source whose replay kept its outputs enters with
  // them, the others replay the window.
  const auto remap = winner_source_remap(*query_);
  if (exact_ && refinable_ && level != finest_level()) {
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      if (remap[s] >= 0) (void)transition(static_cast<int>(s), kNoPrevLevel, level);
    }
    // The last of those replays may have derived them already.
    if (winners_.contains(level)) return;
  }
  const auto& lq = winner_query(level);
  const auto out_idx = lq.root()->output_schema().index_of(keys_.front().key_column);
  std::vector<std::vector<Tuple>> per_window;
  for (std::size_t wi = 0; wi < windows_->size(); ++wi) {
    std::vector<const std::vector<Tuple>*> ready(lq.sources().size(), nullptr);
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      const auto kept = coarse_outputs_.find(std::make_pair(level, static_cast<int>(s)));
      if (remap[s] >= 0 && kept != coarse_outputs_.end()) {
        ready[static_cast<std::size_t>(remap[s])] = &kept->second[wi];
      }
    }
    per_window.push_back(distinct_keys(run_window(lq, (*windows_)[wi], ready), out_idx));
  }
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    coarse_outputs_.erase(std::make_pair(level, static_cast<int>(s)));
  }
  winners_.emplace(level, std::move(per_window));
}

void CostEstimator::replay_steps(int source, int prev, int level) {
  // Every step out of `prev` of every source refining on this source's
  // packet field shares the dynamic filter (that field coarsened to
  // `prev`, against the winners at `prev`), so each window's membership is
  // decided once, by the executor's own filter_in, and the steps replay
  // only the admitted packets, after the filter.
  struct Step {
    int source;
    int level;
    std::shared_ptr<StreamNode> node;
    std::vector<InstrumentedResult> runs;
  };
  std::vector<Step> steps;
  std::vector<int> targets;
  for (const int l : levels_) {
    if (l > prev) targets.push_back(l);
  }
  if (std::find(targets.begin(), targets.end(), level) == targets.end()) targets.push_back(level);
  const std::string& field = keys_.at(static_cast<std::size_t>(source)).source_field;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (keys_[s].source_field != field) continue;
    for (const int l : targets) {
      const int si = static_cast<int>(s);
      if (costs_.contains(std::make_tuple(si, prev, l))) continue;
      RefineOptions opts;
      opts.level = l;
      opts.prev_level = prev;
      opts.filter_table_name = "est";
      opts.relaxed_threshold = relaxed_threshold(si, l);
      steps.push_back({si, l, make_refined_node(*sources_[s], keys_[s], opts), {}});
    }
  }
  for (std::size_t w = 0; w < windows_->size(); ++w) {
    const TupleWindow& window = (*windows_)[w];
    const std::vector<Tuple>& entries = winners(prev, w);
    std::vector<bool> pass(window.size());
    {
      stream::ChainExecutor probe(*steps.front().node);
      load_filters(probe, *steps.front().node, &entries);
      for (std::size_t i = 0; i < window.size(); ++i) pass[i] = probe.passes(0, window[i]);
    }
    for (Step& step : steps) {
      stream::ChainExecutor chain(*step.node);
      load_filters(chain, *step.node, &entries);
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (!pass[i]) continue;
        chain.ingest(window[i], 1);
        chain.discard_outputs();
      }
      step.runs.push_back(close_and_count(*step.node, chain, nullptr));
      step.runs.back().n_after[0] = window.size();
    }
  }
  for (const Step& step : steps) {
    costs_.emplace(std::make_tuple(step.source, prev, step.level), median_cost(step.runs));
  }
}

const TransitionCost& CostEstimator::transition(int source, int prev, int level) {
  const auto cache_key = std::make_tuple(source, prev, level);
  auto it = costs_.find(cache_key);
  if (it != costs_.end()) return it->second;

  if (prev == kNoPrevLevel) {
    // Unrefined queries run their original chain at every level.
    if (!refinable_ || level == finest_level()) {
      replay_finest(source, level);
    } else {
      replay_coarse(source, level);
    }
    return costs_.at(cache_key);
  }

  // A later chain step: replayed with its siblings out of `prev`.
  assert(refinable_);
  replay_steps(source, prev, level);
  return costs_.at(cache_key);
}

}  // namespace sonata::planner
