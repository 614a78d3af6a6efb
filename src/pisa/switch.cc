#include "pisa/switch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <type_traits>

#include "util/log.h"

namespace sonata::pisa {

using query::OpKind;
using query::Operator;
using query::Schema;
using query::Tuple;

namespace {

// Tuple::hash's seed; packed keys fold the same per-column hashes.
constexpr std::uint64_t kTupleHashSeed = 0x531a0badcafeULL;
constexpr std::uint32_t kFreeCell = ~std::uint32_t{0};

std::vector<query::ValueKind> result_kinds(const std::vector<query::Program>& programs) {
  std::vector<query::ValueKind> kinds;
  kinds.reserve(programs.size());
  for (const auto& p : programs) kinds.push_back(p.result_kind());
  return kinds;
}

}  // namespace

void CompiledSwitchQuery::EntrySet::assign(std::vector<Tuple> entries) {
  keys_.clear();
  hashes_.clear();
  index_.clear();
  if (entries.empty()) return;
  index_.assign(std::bit_ceil(entries.size() * 2), kFreeCell);
  const std::size_t mask = index_.size() - 1;
  for (Tuple& e : entries) {
    const std::uint64_t h = e.hash();
    std::size_t i = h & mask;
    bool dup = false;
    for (; index_[i] != kFreeCell; i = (i + 1) & mask) {
      if (hashes_[index_[i]] == h && keys_[index_[i]] == e) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    index_[i] = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(std::move(e));
    hashes_.push_back(h);
  }
}

bool CompiledSwitchQuery::EntrySet::contains(
    std::uint64_t hash, const std::uint64_t* words, const query::Value* strs,
    const std::vector<query::ValueKind>& kinds) const noexcept {
  if (index_.empty()) return false;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask; index_[i] != kFreeCell; i = (i + 1) & mask) {
    const std::uint32_t id = index_[i];
    if (hashes_[id] != hash || keys_[id].size() != kinds.size()) continue;
    const auto& vals = keys_[id].values;
    bool equal = true;
    for (std::size_t c = 0; c < kinds.size() && equal; ++c) {
      if (kinds[c] == query::ValueKind::kString) {
        equal = vals[c].is_string() && vals[c].as_string() == strs[c].as_string();
      } else {
        equal = vals[c].is_uint() && vals[c].as_uint() == words[c];
      }
    }
    if (equal) return true;
  }
  return false;
}

CompiledSwitchQuery::CompiledSwitchQuery(const query::StreamNode& node, Options opts)
    : node_(node), opts_(std::move(opts)) {
  assert(node_.kind == query::StreamNode::Kind::kSource);
  assert(node_.schemas.size() == node_.ops.size() + 1);
  assert(opts_.partition <= node_.ops.size());

  source_width_ = node_.schemas[0].size();
  std::size_t width = 0;
  std::size_t key_width = 0;
  const auto chain_config = [&](std::size_t i, int value_bits) {
    const auto it = opts_.sizing.find(i);
    const RegisterSizing rs = it != opts_.sizing.end() ? it->second : RegisterSizing{};
    RegisterChainConfig rc;
    rc.entries_per_register = rs.entries;
    rc.depth = rs.depth;
    rc.key_bits = stateful_key_bits(node_, i);
    rc.value_bits = value_bits;
    rc.hash_seed = opts_.hash_seed;
    rc.hashpipe = rs.sketch;
    return rc;
  };
  for (std::size_t i = 0; i < opts_.partition; ++i) {
    const Operator& op = node_.ops[i];
    const Schema& in = node_.schemas[i];
    width = std::max(width, node_.schemas[i + 1].size());
    CompiledOp cop;
    cop.kind = op.kind;
    cop.op_index = i;
    switch (op.kind) {
      case OpKind::kFilter:
        if (foldable_threshold(node_, i)) continue;  // folded into the reduce below
        cop.pred = op.predicate->bind(in);
        break;
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) cop.match.push_back(m->bind(in));
        cop.kinds = result_kinds(cop.match);
        cop.table_name = op.table_name;
        key_width = std::max(key_width, cop.match.size());
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) cop.projections.push_back(p.expr->bind(in));
        cop.kinds = result_kinds(cop.projections);
        break;
      case OpKind::kDistinct: {
        for (std::size_t c = 0; c < in.size(); ++c) cop.key_idx.push_back(c);
        for (const auto& col : in.columns()) cop.key_kinds.push_back(col.kind);
        RegisterChainConfig rc = chain_config(i, 1);
        rc.hashpipe = false;
        cop.chain = std::make_unique<RegisterChain>(rc, cop.key_kinds);
        break;
      }
      case OpKind::kReduce: {
        for (const auto& k : op.keys) {
          const auto idx = in.index_of(k);
          assert(idx);
          cop.key_idx.push_back(*idx);
          cop.key_kinds.push_back(in.at(*idx).kind);
        }
        const auto vidx = in.index_of(op.value_col);
        assert(vidx);
        cop.value_idx = *vidx;
        cop.fn = op.fn;
        cop.chain = std::make_unique<RegisterChain>(chain_config(i, 32), cop.key_kinds);
        // Fold the following threshold filter, if present and included in
        // the partition.
        if (i + 1 < opts_.partition) cop.folded = foldable_threshold(node_, i + 1);
        break;
      }
    }
    cop.key_has_strings = std::find(cop.key_kinds.begin(), cop.key_kinds.end(),
                                    query::ValueKind::kString) != cop.key_kinds.end();
    key_width = std::max(key_width, cop.key_idx.size());
    ops_.push_back(std::move(cop));
  }
  for (RowBuffer& b : rows_) {
    b.w.assign(width, 0);
    b.s.assign(width, query::Value{});
  }
  key_w_.assign(key_width, 0);
  key_s_.assign(key_width, nullptr);
  pending_.packed.assign(key_width, 0);
  match_s_.assign(key_width, query::Value{});

  if (!ops_.empty() && ops_.back().kind == OpKind::kReduce) {
    tail_reduce_ = &ops_.back();
    // Polled aggregates re-enter the chain AT the reduce: the stream
    // processor folds them into its own (overflow-corrected) state and
    // applies the trailing threshold to the merged totals.
    poll_entry_ = tail_reduce_->op_index;
  } else {
    poll_entry_ = opts_.partition;
  }
}

bool CompiledSwitchQuery::process_into(const Tuple& source, EmitSink& sink) {
  prepare(source);
  return finish(source, sink);
}

void CompiledSwitchQuery::prepare(const Tuple& source) {
  ++packets_seen_;
  if (!ops_.empty() && source.size() < source_width_) {
    throw std::out_of_range("CompiledSwitchQuery: source tuple narrower than its schema");
  }
  pending_.live = run(SourceRow{source}, 0, nullptr);
}

bool CompiledSwitchQuery::finish(const Tuple& source, EmitSink& sink) {
  if (!pending_.live) return false;
  pending_.live = false;
  if (pending_.w == nullptr) return run(SourceRow{source}, pending_.op, &sink);
  return run(WordRow{pending_.w, pending_.s}, pending_.op, &sink);
}

template <typename Row>
bool CompiledSwitchQuery::run(const Row& row, std::size_t first, EmitSink* sink) {
  // Operators read the row in place: filters, maps and register keys run on
  // u64 words, and a Tuple is built only for a mirrored record.
  for (std::size_t k = first; k < ops_.size(); ++k) {
    CompiledOp& cop = ops_[k];
    switch (cop.kind) {
      case OpKind::kFilter:
        if (cop.pred.eval_uint(row) == 0) return false;
        break;
      case OpKind::kFilterIn: {
        std::uint64_t h = kTupleHashSeed;
        for (std::size_t c = 0; c < cop.match.size(); ++c) {
          if (cop.kinds[c] == query::ValueKind::kString) {
            match_s_[c] = cop.match[c].eval(row);
            h = util::hash_combine(h, util::fnv1a64(match_s_[c].as_string()));
          } else {
            key_w_[c] = cop.match[c].eval_uint(row);
            h = util::hash_combine(h, util::hash_u64(key_w_[c], 0));
          }
        }
        if (!cop.entries.contains(h, key_w_.data(), match_s_.data(), cop.kinds)) return false;
        break;
      }
      case OpKind::kMap: {
        RowBuffer* next = &rows_[0];
        if constexpr (std::is_same_v<Row, WordRow>) {
          if (row.w == rows_[0].w.data()) next = &rows_[1];
        }
        for (std::size_t c = 0; c < cop.projections.size(); ++c) {
          if (cop.kinds[c] == query::ValueKind::kString) {
            next->s[c] = cop.projections[c].eval(row);
          } else {
            next->w[c] = cop.projections[c].eval_uint(row);
          }
        }
        return run(WordRow{next->w.data(), next->s.data()}, k + 1, sink);
      }
      case OpKind::kDistinct:
      case OpKind::kReduce:
        if (sink != nullptr) return run_stateful(row, k, *sink);
        hold(row, k);
        return true;
    }
  }
  if (sink == nullptr) {
    hold(row, ops_.size());
    return true;
  }
  // Stateless tail: the tuple itself streams to the SP.
  emit(EmitRecord::Kind::kStream, opts_.partition, row_tuple(row, opts_.partition), *sink);
  return true;
}

template <typename Row>
void CompiledSwitchQuery::hold(const Row& row, std::size_t k) {
  pending_.op = k;
  pending_.located = k < ops_.size() && !ops_[k].chain->sketch();
  if (pending_.located) {
    pending_.at = ops_[k].chain->locate(gather_key(ops_[k], row), pending_.packed.data());
  }
  if constexpr (std::is_same_v<Row, WordRow>) {
    pending_.w = row.w;
    pending_.s = row.s;
  } else {
    pending_.w = nullptr;
  }
}

template <typename Row>
bool CompiledSwitchQuery::run_stateful(const Row& row, std::size_t k, EmitSink& sink) {
  CompiledOp& cop = ops_[k];
  const RegisterChain::KeyColumns key = gather_key(cop, row);
  // The key prepare() located, or this one now.
  if (!(pending_.located && pending_.op == k) && !cop.chain->sketch()) {
    pending_.at = cop.chain->locate(key, pending_.packed.data());
  }
  pending_.located = false;
  RegisterChain::Located& at = pending_.at;
  std::uint64_t* packed = pending_.packed.data();
  if (cop.kind == OpKind::kDistinct) {
    const auto r = cop.chain->update(at, packed, key, 1, query::ReduceFn::kBitOr);
    ++probe_tally_[std::min(r.probes, kProbeTallyMax)];
    if (r.overflow) {
      ++overflows_;
      emit(EmitRecord::Kind::kOverflow, cop.op_index, row_tuple(row, cop.op_index), sink);
      return true;
    }
    if (!r.newly_inserted) return false;  // duplicate within window
    return run(row, k + 1, &sink);
  }
  const std::uint64_t delta = row.uint_at(cop.value_idx);
  // A HashPipe chain keeps Tuple keys (state/hashpipe.h).
  const bool sketch = cop.chain->sketch();
  Tuple sketch_key;
  if (sketch) sketch_key = key_tuple(cop);
  const auto r = sketch ? cop.chain->update(sketch_key, delta, cop.fn)
                        : cop.chain->update(at, packed, key, delta, cop.fn);
  ++probe_tally_[std::min(r.probes, kProbeTallyMax)];
  if (r.overflow) {
    ++overflows_;
    // The SP re-runs the reduce (and everything after) for this key.
    emit(EmitRecord::Kind::kOverflow, cop.op_index, row_tuple(row, cop.op_index), sink);
    return true;
  }
  bool report = false;
  if (cop.folded) {
    const bool passes = cop.folded->strict ? r.value > cop.folded->threshold
                                           : r.value >= cop.folded->threshold;
    if (passes) {
      report = sketch ? cop.chain->mark_reported(sketch_key) : cop.chain->mark_reported(at, packed);
    }
  } else {
    report = r.newly_inserted;
  }
  if (!report) return false;
  Tuple out = sketch ? std::move(sketch_key) : key_tuple(cop);
  out.values.emplace_back(r.value);
  ++key_reports_;
  emit(EmitRecord::Kind::kKeyReport, poll_entry_, std::move(out), sink);
  return true;
}

Tuple CompiledSwitchQuery::row_tuple(const SourceRow& row, std::size_t) const { return row.t; }

Tuple CompiledSwitchQuery::row_tuple(const WordRow& row, std::size_t schema_index) const {
  const Schema& schema = node_.schemas[schema_index];
  Tuple t;
  t.values.reserve(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (schema.at(c).kind == query::ValueKind::kString) {
      t.values.push_back(row.s[c]);
    } else {
      t.values.emplace_back(row.w[c]);
    }
  }
  return t;
}

template <typename Row>
RegisterChain::KeyColumns CompiledSwitchQuery::gather_key(const CompiledOp& cop, const Row& row) {
  for (std::size_t c = 0; c < cop.key_idx.size(); ++c) {
    if (cop.key_kinds[c] == query::ValueKind::kString) {
      key_s_[c] = &row.value_at(cop.key_idx[c]);
    } else {
      key_w_[c] = row.uint_at(cop.key_idx[c]);
    }
  }
  return {key_w_.data(), cop.key_has_strings ? key_s_.data() : nullptr};
}

Tuple CompiledSwitchQuery::key_tuple(const CompiledOp& cop) const {
  Tuple t;
  t.values.reserve(cop.key_idx.size() + 1);
  for (std::size_t c = 0; c < cop.key_idx.size(); ++c) {
    if (cop.key_kinds[c] == query::ValueKind::kString) {
      t.values.push_back(*key_s_[c]);
    } else {
      t.values.emplace_back(key_w_[c]);
    }
  }
  return t;
}

void CompiledSwitchQuery::emit(EmitRecord::Kind kind, std::size_t op_index, Tuple tuple,
                               EmitSink& sink) {
  ++emitted_;
  sink.append(EmitRecord{kind, opts_.qid, opts_.source_index, opts_.level, op_index,
                         std::move(tuple)});
}

std::optional<EmitRecord> CompiledSwitchQuery::process(const Tuple& source) {
  EmitSink sink;
  if (!process_into(source, sink)) return std::nullopt;
  return std::move(sink.records().front());
}

std::vector<Tuple> CompiledSwitchQuery::poll_aggregates() const {
  std::vector<Tuple> out;
  if (!tail_reduce_) return out;
  for (auto& [key, value] : tail_reduce_->chain->entries()) {
    out.push_back(shape_polled(key, value));
  }
  return out;
}

CompiledSwitchQuery::PolledPartial CompiledSwitchQuery::poll_partial() const {
  PolledPartial out;
  if (!tail_reduce_) return out;
  auto entries = tail_reduce_->chain->entries();
  out.keys.reserve(entries.size());
  out.values.reserve(entries.size());
  for (auto& [key, value] : entries) {
    out.keys.push_back(std::move(key));
    out.values.push_back(value);
  }
  return out;
}

Tuple CompiledSwitchQuery::shape_polled(const Tuple& key, std::uint64_t value) const {
  assert(tail_reduce_);
  // Shape the aggregate like a reduce-input tuple: keys at their key
  // positions, the aggregate in the value column, anything else zeroed.
  const Schema& in = node_.schemas[tail_reduce_->op_index];
  Tuple t;
  t.values.assign(in.size(), query::Value{std::uint64_t{0}});
  for (std::size_t k = 0; k < tail_reduce_->key_idx.size(); ++k) {
    t.values[tail_reduce_->key_idx[k]] = key.at(k);
  }
  t.values[tail_reduce_->value_idx] = query::Value{value};
  return t;
}

void CompiledSwitchQuery::reset_registers() {
  for (auto& cop : ops_) {
    if (cop.chain) cop.chain->reset();
  }
}

void CompiledSwitchQuery::reset_runtime_state() {
  reset_registers();
  // Stale dynamic-refinement winners must not filter the next plan's first
  // window — a freshly compiled pipeline starts with empty entry sets.
  for (auto& cop : ops_) {
    if (cop.kind == OpKind::kFilterIn) cop.entries.clear();
  }
}

std::vector<CompiledSwitchQuery::StatefulOpStats> CompiledSwitchQuery::stateful_op_stats() const {
  std::vector<StatefulOpStats> out;
  for (const auto& cop : ops_) {
    if (!cop.chain) continue;
    const RegisterChainConfig& rc = cop.chain->config();
    out.push_back({.op_index = cop.op_index,
                   .kind = cop.kind,
                   .keys_stored = cop.chain->keys_stored(),
                   .slots = static_cast<std::uint64_t>(rc.entries_per_register) *
                            static_cast<std::uint64_t>(rc.depth),
                   .overflows = cop.chain->overflow_count(),
                   .sketch = cop.chain->sketch(),
                   .evicted_weight = cop.chain->evicted_weight(),
                   .evicted_keys = cop.chain->evicted_keys()});
  }
  return out;
}

bool CompiledSwitchQuery::set_filter_entries(const std::string& table_name,
                                             std::vector<Tuple> entries) {
  for (auto& cop : ops_) {
    if (cop.kind == OpKind::kFilterIn && cop.table_name == table_name) {
      cop.entries.assign(std::move(entries));
      return true;
    }
  }
  return false;
}

std::string Switch::install(std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines,
                            const std::vector<ProgramResources>& resources) {
  Layout layout = assign_stages(cfg_, resources);
  if (!layout.feasible) return layout.error;
  pipelines_ = std::move(pipelines);
  layout_ = std::move(layout);
  init_obs_handles();
  SONATA_DEBUG("pisa", "installed %zu pipelines, metadata %d bits", pipelines_.size(),
               layout_.metadata_bits_used);
  return {};
}

std::vector<std::unique_ptr<CompiledSwitchQuery>> Switch::release_pipelines() {
  publish_obs();  // flush pending deltas before the baselines go away
  std::vector<std::unique_ptr<CompiledSwitchQuery>> out = std::move(pipelines_);
  pipelines_.clear();
  layout_ = Layout{};
  return out;
}

void Switch::init_obs_handles() {
  auto& reg = obs::Registry::global();
  const std::pair<std::string_view, std::string> sw{"sw", obs_label_};
  auto name1 = [&](const char* base) {
    const std::pair<std::string_view, std::string> labels[] = {sw};
    return obs::labeled(base, labels);
  };
  obs_.packets = &reg.counter(name1("sonata_pisa_packets_total"));
  obs_.dropped = &reg.counter(name1("sonata_pisa_dropped_total"));
  auto kind_name = [&](const char* kind) {
    const std::pair<std::string_view, std::string> labels[] = {sw, {"kind", kind}};
    return obs::labeled("sonata_pisa_emit_records_total", labels);
  };
  obs_.emit_stream = &reg.counter(kind_name("stream"));
  obs_.emit_key_report = &reg.counter(kind_name("key_report"));
  obs_.emit_overflow = &reg.counter(kind_name("overflow"));
  static constexpr std::uint64_t kProbeBounds[] = {1, 2, 3, 4, 6, 8};
  obs_.probe_depth = &reg.histogram(name1("sonata_pisa_probe_depth"), kProbeBounds);

  obs_.occupancy.clear();
  obs_.occupancy.reserve(pipelines_.size());
  obs_.evicted.clear();
  obs_.evicted.reserve(pipelines_.size());
  obs_.probe_pub.assign(pipelines_.size() * (CompiledSwitchQuery::kProbeTallyMax + 1), 0);
  // Baselines snapshot the *current* cumulative counters, not zero: a
  // pipeline reused across a plan swap (and a Switch reinstalled in place)
  // keeps counting from where it was, and the registry must only ever see
  // the delta since this install.
  obs_.packets_pub = stats_.packets_processed;
  obs_.dropped_pub = stats_.dropped_packets;
  obs_.stream_pub = obs_.key_report_pub = obs_.overflow_pub = 0;
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    const auto& p = pipelines_[i];
    obs_.stream_pub += p->stream_records();
    obs_.key_report_pub += p->key_report_records();
    obs_.overflow_pub += p->overflow_records();
    const auto tally = p->probe_tally();
    std::uint64_t* pub = &obs_.probe_pub[i * tally.size()];
    for (std::size_t d = 0; d < tally.size(); ++d) pub[d] = tally[d];
  }
  for (const auto& p : pipelines_) {
    const auto& o = p->options();
    std::vector<obs::Gauge*> per_op;
    std::vector<obs::Gauge*> per_op_evicted;
    for (const auto& s : p->stateful_op_stats()) {
      const std::pair<std::string_view, std::string> labels[] = {
          sw,
          {"qid", std::to_string(o.qid)},
          {"src", std::to_string(o.source_index)},
          {"level", std::to_string(o.level)},
          {"op", std::to_string(s.op_index)}};
      per_op.push_back(&reg.gauge(obs::labeled("sonata_pisa_register_occupancy", labels)));
      reg.gauge(obs::labeled("sonata_pisa_register_slots", labels))
          .set(static_cast<std::int64_t>(s.slots));
      per_op_evicted.push_back(
          s.sketch ? &reg.gauge(obs::labeled("sonata_pisa_hashpipe_evicted_weight", labels))
                   : nullptr);
    }
    obs_.occupancy.push_back(std::move(per_op));
    obs_.evicted.push_back(std::move(per_op_evicted));
  }
}

void Switch::publish_obs() {
  if (!obs::enabled() || pipelines_.empty() || obs_.packets == nullptr) return;
  obs_.packets->add(stats_.packets_processed - obs_.packets_pub);
  obs_.packets_pub = stats_.packets_processed;
  obs_.dropped->add(stats_.dropped_packets - obs_.dropped_pub);
  obs_.dropped_pub = stats_.dropped_packets;

  std::uint64_t streams = 0, key_reports = 0, overflows = 0;
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    const auto& p = *pipelines_[i];
    streams += p.stream_records();
    key_reports += p.key_report_records();
    overflows += p.overflow_records();
    // Register occupancy is a point-in-time gauge: published at window
    // close, before reset_all_registers clears the chains.
    const auto stats = p.stateful_op_stats();
    for (std::size_t s = 0; s < stats.size() && s < obs_.occupancy[i].size(); ++s) {
      obs_.occupancy[i][s]->set(static_cast<std::int64_t>(stats[s].keys_stored));
      if (obs::Gauge* g = obs_.evicted[i][s]) {
        g->set(static_cast<std::int64_t>(stats[s].evicted_weight));
      }
    }
    const auto tally = p.probe_tally();
    std::uint64_t* pub = &obs_.probe_pub[i * tally.size()];
    for (std::size_t d = 1; d < tally.size(); ++d) {
      const std::uint64_t delta = tally[d] - pub[d];
      if (delta != 0) obs_.probe_depth->observe_n(d, delta);
      pub[d] = tally[d];
    }
  }
  obs_.emit_stream->add(streams - obs_.stream_pub);
  obs_.stream_pub = streams;
  obs_.emit_key_report->add(key_reports - obs_.key_report_pub);
  obs_.key_report_pub = key_reports;
  obs_.emit_overflow->add(overflows - obs_.overflow_pub);
  obs_.overflow_pub = overflows;
}

void Switch::process_one(const Tuple& source, EmitSink& sink) {
  ++stats_.packets_processed;
  for (const auto& [col, keys] : blocks_) {
    if (col < source.size() && keys.contains(source.at(col))) {
      ++stats_.dropped_packets;
      return;  // guard table drops the packet at line rate
    }
  }
  const std::size_t before = sink.size();
  for (auto& p : pipelines_) p->prepare(source);
  for (auto& p : pipelines_) {
    if (p->finish(source, sink)) {
      ++stats_.records_emitted;
      if (sink.records().back().kind == EmitRecord::Kind::kOverflow) ++stats_.overflow_records;
    }
  }
  if (sink.size() != before) sink.note_packet_with_records();
}

void Switch::process_batch(std::span<const Tuple> sources, EmitSink& sink) {
  for (const Tuple& source : sources) process_one(source, sink);
}

void Switch::process(const net::Packet& packet, std::vector<EmitRecord>& out) {
  const Tuple source = query::materialize_tuple(packet);
  process_tuple(source, out);
}

void Switch::process_tuple(const Tuple& source, std::vector<EmitRecord>& out) {
  scratch_sink_.clear();
  process_one(source, scratch_sink_);
  for (EmitRecord& rec : scratch_sink_.records()) out.push_back(std::move(rec));
}

int Switch::update_filter_entries(const std::string& table_name,
                                  std::vector<query::Tuple> entries) {
  int updated = 0;
  for (auto& p : pipelines_) {
    // Each pipeline gets its own copy: entry sets are per-table state.
    if (p->set_filter_entries(table_name, entries)) {
      ++updated;
      stats_.filter_entry_updates += entries.size();
      stats_.control_update_millis += kMillisPerEntryUpdate * static_cast<double>(entries.size());
    }
  }
  if (updated > 0 && obs::enabled()) {
    const std::pair<std::string_view, std::string> labels[] = {{"sw", obs_label_},
                                                               {"table", table_name}};
    obs::Registry::global()
        .gauge(obs::labeled("sonata_pisa_filter_entries", labels))
        .set(static_cast<std::int64_t>(entries.size()));
  }
  return updated;
}

bool Switch::block(const std::string& field, const query::Value& key) {
  const auto idx = query::source_schema().index_of(field);
  if (!idx) return false;
  for (auto& [col, keys] : blocks_) {
    if (col == *idx) {
      if (keys.insert(key).second) {
        ++stats_.filter_entry_updates;
        stats_.control_update_millis += kMillisPerEntryUpdate;
      }
      return true;
    }
  }
  blocks_.push_back({*idx, {key}});
  ++stats_.filter_entry_updates;
  stats_.control_update_millis += kMillisPerEntryUpdate;
  return true;
}

void Switch::clear_blocks() { blocks_.clear(); }

std::size_t Switch::blocked_keys() const noexcept {
  std::size_t n = 0;
  for (const auto& [col, keys] : blocks_) n += keys.size();
  return n;
}

void Switch::reset_all_registers() {
  publish_obs();  // occupancy gauges must see the pre-reset register state
  for (auto& p : pipelines_) p->reset_registers();
  ++stats_.register_resets;
  stats_.control_update_millis += kMillisPerRegisterReset;
}

}  // namespace sonata::pisa
