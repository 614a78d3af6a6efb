#include "stream/executor.h"

#include <cassert>

#include "obs/metrics.h"

namespace sonata::stream {

namespace {
// One process-wide counter across every chain: total tuples the stream
// processor side ingested (all queries, all entry points).
obs::Counter& stream_tuples_counter() {
  static obs::Counter& c = obs::Registry::global().counter("sonata_stream_tuples_total");
  return c;
}

// SP-side keyed-state histograms, mirroring the switch's probe-depth and
// occupancy metrics so operators can compare SP vs switch collision
// behaviour. Published once per window from each live chain's tables.
obs::Histogram& sp_probe_depth_histogram() {
  static constexpr std::uint64_t kBounds[] = {1, 2, 3, 4, 6, 8};
  static obs::Histogram& h =
      obs::Registry::global().histogram("sonata_sp_probe_depth", kBounds);
  return h;
}

obs::Histogram& sp_table_load_histogram() {
  // Load factor in percent at window close (flat tables grow at 7/8 = 87).
  static constexpr std::uint64_t kBounds[] = {10, 25, 50, 75, 90};
  static obs::Histogram& h =
      obs::Registry::global().histogram("sonata_sp_table_load", kBounds);
  return h;
}

// Drain one flat table's probe tally into the shared histogram.
template <typename Table>
void drain_probes(Table& table, obs::Histogram& probes) {
  std::uint64_t tally[Table::kProbeTallyMax + 1];
  table.drain_probe_tally(tally);
  for (std::size_t d = 1; d <= Table::kProbeTallyMax; ++d) {
    if (tally[d] != 0) probes.observe_n(d, tally[d]);
  }
}

// Visit every exact flat table of a chain's bound operators: filter_in
// entries, distinct sets and reduce maps (sketch engines have none).
template <typename Ops, typename F>
void for_each_table(Ops& ops, F&& f) {
  for (auto& op : ops) {
    if (op.kind == query::OpKind::kFilterIn) {
      f(op.entries.table());
    } else if (op.kind == query::OpKind::kDistinct) {
      if (auto* set = op.seen.exact_set()) f(set->table());
    } else if (op.kind == query::OpKind::kReduce) {
      if (auto* map = op.agg.exact_map()) f(*map);
    }
  }
}
}  // namespace

using query::OpKind;
using query::Operator;
using query::Schema;
using query::StreamNode;
using query::Tuple;

ChainExecutor::ChainExecutor(const StreamNode& node, const query::StateSpec& spec)
    : node_(node) {
  assert(node_.schemas.size() == node_.ops.size() + 1);
  entered_.assign(node_.ops.size() + 1, 0);
  ops_.reserve(node_.ops.size());
  for (std::size_t i = 0; i < node_.ops.size(); ++i) {
    const Operator& op = node_.ops[i];
    const Schema& in = node_.schemas[i];
    BoundOp bop;
    bop.kind = op.kind;
    switch (op.kind) {
      case OpKind::kFilter:
        bop.pred = op.predicate->bind(in);
        break;
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) bop.match.push_back(m->bind(in));
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) bop.projections.push_back(p.expr->bind(in));
        break;
      case OpKind::kDistinct:
        bop.seen.configure(spec);
        break;
      case OpKind::kReduce: {
        for (const auto& k : op.keys) {
          const auto idx = in.index_of(k);
          assert(idx);
          bop.key_idx.push_back(*idx);
        }
        const auto vidx = in.index_of(op.value_col);
        assert(vidx);
        bop.value_idx = *vidx;
        bop.agg.configure(spec, op.fn);
        break;
      }
    }
    ops_.push_back(std::move(bop));
  }
}

void ChainExecutor::ingest(const Tuple& t, std::size_t entry) {
  ++ingested_;
  process(t, nullptr, entry);
}

void ChainExecutor::ingest(Tuple&& t, std::size_t entry) {
  ++ingested_;
  process(t, &t, entry);
}

void ChainExecutor::ingest_batch(std::span<Tuple> ts, std::size_t entry) {
  ingested_ += ts.size();
  for (Tuple& t : ts) process(t, &t, entry);
}

inline bool ChainExecutor::filter_in_holds(BoundOp& op, const Tuple& t) {
  // The probe key is rebuilt into a reused scratch tuple (inline storage,
  // no allocation) and hashed exactly once: the flat table reuses the hash
  // for the group probe and the stored-hash compare.
  Tuple& key = op.probe_scratch;
  key.values.clear();
  for (const auto& m : op.match) key.values.push_back(m(t));
  return op.entries.contains(key, key.hash());
}

bool ChainExecutor::passes(std::size_t k, const Tuple& t) {
  assert(ops_[k].kind == OpKind::kFilterIn);
  return filter_in_holds(ops_[k], t);
}

void ChainExecutor::process(const Tuple& in, Tuple* movable, std::size_t i) {
  // The operators read the current tuple through `t`; it is copied only
  // where it is stored (a distinct's set, the chain end), and a map's
  // output is a new tuple this loop owns.
  const Tuple* t = &in;
  Tuple mapped;
  for (; i < ops_.size(); ++i) {
    ++entered_[i];
    BoundOp& op = ops_[i];
    switch (op.kind) {
      case OpKind::kFilter:
        if (op.pred.eval_uint(query::TupleRow{*t}) == 0) return;
        break;
      case OpKind::kFilterIn:
        if (!filter_in_holds(op, *t)) return;
        break;
      case OpKind::kMap: {
        Tuple next;
        next.values.reserve(op.projections.size());
        for (const auto& p : op.projections) next.values.push_back(p(*t));
        mapped = std::move(next);
        t = movable = &mapped;
        break;
      }
      case OpKind::kDistinct: {
        if (!op.seen.insert_new(*t, t->hash())) return;  // duplicate within window
        break;
      }
      case OpKind::kReduce: {
        Tuple key = query::project(*t, op.key_idx);
        const std::uint64_t hash = key.hash();
        const std::uint64_t delta = t->at(op.value_idx).as_uint();
        op.agg.update(std::move(key), hash, delta);
        return;  // consumed; flushed at window end
      }
    }
  }
  ++entered_[ops_.size()];
  if (movable != nullptr) {
    pending_.push_back(std::move(*movable));
  } else {
    pending_.push_back(*t);
  }
}

std::vector<Tuple> ChainExecutor::end_window() {
  // Closing load of every exact table for publish_obs, read before the
  // reduce drains and the clears below empty them.
  closing_load_pct_.clear();
  for_each_table(ops_, [&](const auto& table) {
    if (!table.empty()) {
      closing_load_pct_.push_back(static_cast<std::uint64_t>(table.load_factor() * 100.0));
    }
  });
  // Flush reduces in ascending order: outputs of an earlier reduce flow into
  // later operators (possibly another reduce, flushed next). The drain walks
  // the dense entry array in insertion order — deterministic regardless of
  // probe order or capacity — and may move keys out in place: a reduce's
  // outputs only ever enter LATER operators, never its own table.
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    BoundOp& op = ops_[i];
    if (op.kind != OpKind::kReduce) continue;
    // A chain-ending reduce reports every key to the outputs: size them once.
    if (i + 1 == ops_.size()) pending_.reserve(pending_.size() + op.agg.size());
    op.agg.drain_and_clear([&](Tuple&& key, std::uint64_t value) {
      Tuple out = std::move(key);
      out.values.emplace_back(value);
      process(out, &out, i + 1);
    });
  }
  for (auto& op : ops_) {
    op.seen.clear();
    op.agg.clear();
  }
  std::vector<Tuple> out = std::move(pending_);
  pending_.clear();
  return out;
}

void ChainExecutor::publish_obs() {
  // One add per window (metrics.h: single-writer loops publish once per
  // window); the probe and load histograms are the SP-side analogue of
  // Switch::publish_obs's register metrics.
  stream_tuples_counter().add(ingested_ - ingested_pub_);
  ingested_pub_ = ingested_;
  obs::Histogram& probes = sp_probe_depth_histogram();
  for_each_table(ops_, [&](auto& table) { drain_probes(table, probes); });
  obs::Histogram& load = sp_table_load_histogram();
  for (const std::uint64_t pct : closing_load_pct_) load.observe(pct);
  closing_load_pct_.clear();
}

std::uint64_t ChainExecutor::stateful_entries() const noexcept {
  return state_usage().entries;
}

state::StateUsage ChainExecutor::state_usage() const noexcept {
  state::StateUsage u;
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kDistinct) {
      const auto ou = op.seen.usage();
      u.entries += ou.entries;
      u.bytes += ou.bytes;
      u.error_bound += ou.error_bound;
    } else if (op.kind == OpKind::kReduce) {
      const auto ou = op.agg.usage();
      u.entries += ou.entries;
      u.bytes += ou.bytes;
      u.error_bound += ou.error_bound;
    }
  }
  return u;
}

bool ChainExecutor::set_filter_entries(const std::string& table_name,
                                       std::vector<Tuple> entries) {
  bool found = false;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (node_.ops[i].kind == OpKind::kFilterIn && node_.ops[i].table_name == table_name) {
      ops_[i].entries.clear();
      ops_[i].entries.reserve(entries.size());
      for (auto& e : entries) ops_[i].entries.insert(std::move(e));
      found = true;
    }
  }
  return found;
}

NodeExecutor::NodeExecutor(const StreamNode& node, const query::StateSpec& spec)
    : node_(node), chain_(node, spec) {
  if (node.kind == StreamNode::Kind::kJoin) {
    left_ = std::make_unique<NodeExecutor>(*node.left, spec);
    right_ = std::make_unique<NodeExecutor>(*node.right, spec);
  }
}

std::vector<Tuple> NodeExecutor::end_window() {
  if (node_.kind == StreamNode::Kind::kJoin) {
    const std::vector<Tuple> lhs = left_->end_window();
    const std::vector<Tuple> rhs = right_->end_window();

    const Schema& ls = node_.left->output_schema();
    const Schema& rs = node_.right->output_schema();
    std::vector<std::size_t> lkeys, rkeys;
    for (const auto& k : node_.join_keys) {
      lkeys.push_back(*ls.index_of(k));
      rkeys.push_back(*rs.index_of(k));
    }
    auto is_key = [&](const std::vector<std::size_t>& keys, std::size_t i) {
      return std::find(keys.begin(), keys.end(), i) != keys.end();
    };

    // Build on the right, probe with the left. The build key's hash is
    // computed once and cached in the flat table's slot.
    util::FlatMap<std::vector<const Tuple*>> built;
    built.reserve(rhs.size());
    for (const auto& r : rhs) {
      Tuple key = query::project(r, rkeys);
      const std::uint64_t hash = key.hash();
      built.try_emplace(std::move(key), hash, {}).first->push_back(&r);
    }

    for (const auto& l : lhs) {
      const Tuple key = query::project(l, lkeys);
      const auto* rows = built.find(key, key.hash());
      if (rows == nullptr) continue;
      for (const Tuple* r : *rows) {
        // Output layout must match validate_node(): keys, left non-keys,
        // right non-keys.
        Tuple joined;
        joined.values.reserve(ls.size() + rs.size());
        for (std::size_t k : lkeys) joined.values.push_back(l.at(k));
        for (std::size_t i = 0; i < ls.size(); ++i) {
          if (!is_key(lkeys, i)) joined.values.push_back(l.at(i));
        }
        for (std::size_t i = 0; i < rs.size(); ++i) {
          if (!is_key(rkeys, i)) joined.values.push_back(r->at(i));
        }
        chain_.ingest(std::move(joined), 0);
      }
    }
  }
  return chain_.end_window();
}

void NodeExecutor::publish_obs() {
  chain_.publish_obs();
  if (left_) left_->publish_obs();
  if (right_) right_->publish_obs();
}

state::StateUsage NodeExecutor::state_usage() const noexcept {
  state::StateUsage u = chain_.state_usage();
  for (const NodeExecutor* child : {left_.get(), right_.get()}) {
    if (child == nullptr) continue;
    const auto cu = child->state_usage();
    u.entries += cu.entries;
    u.bytes += cu.bytes;
    u.error_bound += cu.error_bound;
  }
  return u;
}

namespace {
void collect_source_executors(NodeExecutor* exec, std::vector<NodeExecutor*>& out) {
  if (exec->node().kind == StreamNode::Kind::kSource) {
    out.push_back(exec);
    return;
  }
  collect_source_executors(exec->left(), out);
  collect_source_executors(exec->right(), out);
}
}  // namespace

QueryExecutor::QueryExecutor(const query::Query& q) : query_(&q) {
  root_ = std::make_unique<NodeExecutor>(*q.root(), q.state_spec());
  collect_source_executors(root_.get(), sources_);
}

void QueryExecutor::ingest(int source_index, const Tuple& t, std::size_t entry) {
  sources_.at(static_cast<std::size_t>(source_index))->chain().ingest(t, entry);
}

void QueryExecutor::ingest(int source_index, Tuple&& t, std::size_t entry) {
  sources_.at(static_cast<std::size_t>(source_index))->chain().ingest(std::move(t), entry);
}

void QueryExecutor::ingest_batch(int source_index, std::span<Tuple> ts, std::size_t entry) {
  sources_.at(static_cast<std::size_t>(source_index))->chain().ingest_batch(ts, entry);
}

void QueryExecutor::ingest_packet(const net::Packet& p) {
  ingest_source_tuple(query::materialize_tuple(p));
}

void QueryExecutor::ingest_source_tuple(const Tuple& source_tuple) {
  for (auto* src : sources_) src->chain().ingest(source_tuple, 0);
}

std::vector<Tuple> QueryExecutor::end_window() { return root_->end_window(); }

std::uint64_t QueryExecutor::stateful_entries() const noexcept {
  return root_->state_usage().entries;
}

state::StateUsage QueryExecutor::state_usage() const noexcept { return root_->state_usage(); }

bool QueryExecutor::set_filter_entries(const std::string& table_name,
                                       std::vector<Tuple> entries) {
  bool found = false;
  for (auto* src : sources_) {
    if (src->chain().set_filter_entries(table_name, entries)) found = true;
  }
  return found;
}

}  // namespace sonata::stream
