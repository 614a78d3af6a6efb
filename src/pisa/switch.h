// Executable PISA switch simulator.
//
// A Switch hosts one CompiledSwitchQuery per (query, source, refinement
// level). Each packet is parsed once into a source tuple (the PHV), then
// every installed pipeline processes it; pipelines that mark the report
// flag cause a mirrored packet — an EmitRecord — on the monitoring port,
// which the emitter turns into stream-processor input (paper Figure 6).
//
// Like the metadata fields of a P4 pipeline, a pipeline's intermediate
// values are u64 words: filters and maps run typed query::Programs over
// the source tuple and then over a per-pipeline word row, and register
// keys are packed from those words (pisa/register.h). A Tuple is built
// only for an emitted record. The switch runs each packet in two passes
// over its pipelines (prepare, then finish) so that the pipelines'
// register misses overlap; records come out in pipeline order.
//
// The driver-facing surface (install / update_filter_entries /
// poll_and_reset) mirrors what Sonata's runtime does to BMV2/Tofino over
// Thrift, including the modelled per-update latency used by the
// dynamic-refinement overhead micro-benchmark (paper §6.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "pisa/compile.h"
#include "pisa/config.h"
#include "pisa/layout.h"
#include "pisa/register.h"
#include "query/field.h"
#include "query/query.h"

namespace sonata::pisa {

// What the switch mirrors to the monitoring port for one packet.
struct EmitRecord {
  enum class Kind : std::uint8_t {
    kStream,     // tuple passed a stateless switch prefix; SP continues at op_index
    kKeyReport,  // first report for a register key (stateful tail); SP polls later
    kOverflow,   // key collided in all d registers; SP takes over at op_index
  };
  Kind kind = Kind::kStream;
  query::QueryId qid = 0;
  int source_index = 0;
  int level = 0;
  std::size_t op_index = 0;  // where the tuple (re-)enters the operator chain
  query::Tuple tuple;
  // Ingest timestamp (obs::now_ns) of the packet/batch that produced this
  // record; 0 when metrics are off. Feeds the per-(query, level) report
  // latency histograms; never consulted by the data path itself, so it has
  // no effect on window results. Kept last: the switch data path
  // aggregate-initializes EmitRecord positionally without this field.
  std::uint64_t ingest_ns = 0;
};

// Caller-owned arena for mirrored records — the batched data path's
// replacement for returning optional<EmitRecord> per packet. Records are
// appended in packet-arrival order; clear() keeps the capacity, so a
// driver that reuses one sink per shard allocates only until the high-water
// mark of a window. The packets_with_records counter feeds the drivers'
// tuple accounting (one mirrored packet per source packet with at least one
// emission, paper §3.1.3).
class EmitSink {
 public:
  template <typename... Args>
  EmitRecord& append(Args&&... args) {
    return records_.emplace_back(std::forward<Args>(args)...);
  }

  // Drop everything but keep the allocation (arena reuse).
  void clear() noexcept {
    records_.clear();
    packets_with_records_ = 0;
  }

  [[nodiscard]] std::span<EmitRecord> records() noexcept { return records_; }
  [[nodiscard]] std::span<const EmitRecord> records() const noexcept {
    return {records_.data(), records_.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  [[nodiscard]] std::uint64_t packets_with_records() const noexcept {
    return packets_with_records_;
  }
  void note_packet_with_records() noexcept { ++packets_with_records_; }

 private:
  std::vector<EmitRecord> records_;
  std::uint64_t packets_with_records_ = 0;
};

// Executable form of one partitioned (and possibly refined) sub-query.
class CompiledSwitchQuery {
 public:
  struct Options {
    query::QueryId qid = 0;
    int source_index = 0;
    int level = 32;
    std::size_t partition = 0;
    std::map<std::size_t, RegisterSizing> sizing;  // stateful op index -> n, d
    std::uint64_t hash_seed = 0;  // register hash family seed (0 = default)
  };

  // `node` must stay alive and validated for the lifetime of this object.
  CompiledSwitchQuery(const query::StreamNode& node, Options opts);

  // Process one source tuple; a mirrored record is appended to `sink` if
  // the report flag is set at the end of the pipeline. Returns whether a
  // record was emitted. Equivalent to prepare() then finish().
  bool process_into(const query::Tuple& source, EmitSink& sink);

  // The two halves of process_into. prepare() runs the stateless prefix up
  // to the first register operator, locates its key in the registers and
  // prefetches the slots; finish() runs the rest, emitting any record. A
  // switch prepares every pipeline before finishing the first, so their
  // register misses overlap. finish() must follow prepare() with the same
  // source tuple, before this pipeline sees another.
  void prepare(const query::Tuple& source);
  bool finish(const query::Tuple& source, EmitSink& sink);

  // Convenience wrapper around process_into for single-packet callers.
  [[nodiscard]] std::optional<EmitRecord> process(const query::Tuple& source);

  // True when the pipeline ends in a register (reduce) the stream
  // processor must poll at the end of each window.
  [[nodiscard]] bool has_stateful_tail() const noexcept { return tail_reduce_ != nullptr; }

  // End-of-window register poll (control channel). Returns ALL stored
  // aggregates, shaped like the tail reduce's *input* tuples (value column
  // carrying the aggregate, unused columns zeroed), so the stream processor
  // ingests them at the reduce itself and merges them with any
  // overflow-corrected partial counts before applying the trailing
  // threshold (paper §3.1.3: the emitter reads the aggregated value for
  // each key in its local store from the data-plane registers, and the SP
  // adjusts results for collisions). The folded threshold still governs
  // which keys generate *report packets* (the N the evaluation counts);
  // polling is control-plane.
  [[nodiscard]] std::vector<query::Tuple> poll_aggregates() const;

  // Raw end-of-window poll for the parallel window merge: the stateful
  // tail's keys and aggregates in the registers' deterministic entries()
  // order, unshaped, split into parallel columns so the driver can batch-
  // hash the contiguous keys (query::hash_tuples). Shards return these from
  // their local close phase; the driver pre-folds repeated keys across
  // shards with tail_reduce_fn() and shapes each merged key once via
  // shape_polled(). Empty when !has_stateful_tail().
  struct PolledPartial {
    std::vector<query::Tuple> keys;
    std::vector<std::uint64_t> values;  // parallel to keys
  };
  [[nodiscard]] PolledPartial poll_partial() const;

  // Shape one (key, aggregate) pair exactly like poll_aggregates() shapes
  // each register entry. Requires has_stateful_tail().
  [[nodiscard]] query::Tuple shape_polled(const query::Tuple& key, std::uint64_t value) const;

  // Reduce fn of the stateful tail (kSum when there is none).
  [[nodiscard]] query::ReduceFn tail_reduce_fn() const noexcept {
    return tail_reduce_ != nullptr ? tail_reduce_->fn : query::ReduceFn::kSum;
  }

  // Operator index where polled aggregates enter the stream processor:
  // the tail reduce itself.
  [[nodiscard]] std::size_t poll_entry_op() const noexcept { return poll_entry_; }

  // Clear all register state (driver does this between windows).
  void reset_registers();

  // Reset every piece of per-window runtime state — registers and dynamic
  // filter entries — so a pipeline carried over from a previous plan
  // (partial recompile on a control-plane swap) behaves exactly like a
  // freshly compiled one. Cumulative counters are kept; the switch's obs
  // baselines re-snapshot them at install.
  void reset_runtime_state();

  // The augmented chain this pipeline was compiled from (identity key for
  // pipeline reuse across plan swaps).
  [[nodiscard]] const query::StreamNode& node() const noexcept { return node_; }

  // Replace the entry set of a dynamic-refinement filter table. Returns
  // false if this pipeline has no such table.
  bool set_filter_entries(const std::string& table_name,
                          std::vector<query::Tuple> entries);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }
  [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::uint64_t overflow_records() const noexcept { return overflows_; }
  [[nodiscard]] std::uint64_t key_report_records() const noexcept { return key_reports_; }
  [[nodiscard]] std::uint64_t stream_records() const noexcept {
    return emitted_ - overflows_ - key_reports_;
  }

  // Per-register-chain occupancy, read at window close (before the reset)
  // so the observability layer can publish register pressure per stage.
  struct StatefulOpStats {
    std::size_t op_index = 0;
    query::OpKind kind = query::OpKind::kDistinct;
    std::uint64_t keys_stored = 0;
    std::uint64_t slots = 0;  // total capacity: entries_per_register * depth
    std::uint64_t overflows = 0;
    // HashPipe mode: weight/keys evicted past the last stage this window
    // (the error bound standing in for overflow-to-SP correction).
    bool sketch = false;
    std::uint64_t evicted_weight = 0;
    std::uint64_t evicted_keys = 0;
  };
  [[nodiscard]] std::vector<StatefulOpStats> stateful_op_stats() const;

  // Collision-chain depth tally: probe_tally()[p] counts stateful-op
  // updates that examined p registers (index 0 unused; the last index
  // aggregates >= kProbeTallyMax probes). Plain single-writer counters —
  // a Switch is driven by one thread — so the hot path stays atomic-free.
  static constexpr int kProbeTallyMax = 8;
  [[nodiscard]] std::span<const std::uint64_t> probe_tally() const noexcept {
    return {probe_tally_, kProbeTallyMax + 1};
  }

 private:
  // The row a pipeline reads once a map has rewritten the packet: one u64
  // word per numeric column and a Value per string column, parallel arrays
  // indexed by column (the other array's entry is stale and never read).
  struct WordRow {
    const std::uint64_t* w;
    const query::Value* s;
    [[nodiscard]] std::uint64_t uint_at(std::size_t i) const noexcept { return w[i]; }
    [[nodiscard]] const query::Value& value_at(std::size_t i) const noexcept { return s[i]; }
  };
  // The source tuple (PHV) before any map; its width is checked once per
  // packet.
  struct SourceRow {
    const query::Tuple& t;
    [[nodiscard]] std::uint64_t uint_at(std::size_t i) const noexcept {
      return t.values[i].as_uint();
    }
    [[nodiscard]] const query::Value& value_at(std::size_t i) const noexcept {
      return t.values[i];
    }
  };
  struct RowBuffer {
    std::vector<std::uint64_t> w;
    std::vector<query::Value> s;
  };

  // A filter_in table: entry tuples behind an open-addressing index over
  // their Tuple::hash, probed with packed match keys.
  class EntrySet {
   public:
    void assign(std::vector<query::Tuple> entries);
    void clear() noexcept { assign({}); }
    [[nodiscard]] bool contains(std::uint64_t hash, const std::uint64_t* words,
                                const query::Value* strs,
                                const std::vector<query::ValueKind>& kinds) const noexcept;

   private:
    std::vector<query::Tuple> keys_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint32_t> index_;  // key ids; ~0 marks a free cell
  };

  struct CompiledOp {
    query::OpKind kind = query::OpKind::kFilter;
    std::size_t op_index = 0;
    // filter
    query::Program pred;
    // filter_in
    std::vector<query::Program> match;
    std::string table_name;
    EntrySet entries;
    // map / filter_in: kind of each program's result
    std::vector<query::ValueKind> kinds;
    // map
    std::vector<query::Program> projections;
    // distinct / reduce: the key's columns in the op's input row and their
    // kinds (a distinct's key is the whole row)
    std::vector<std::size_t> key_idx;
    std::vector<query::ValueKind> key_kinds;
    bool key_has_strings = false;
    std::size_t value_idx = 0;
    query::ReduceFn fn = query::ReduceFn::kSum;
    std::unique_ptr<RegisterChain> chain;
    // folded threshold on the tail reduce
    std::optional<FoldedThreshold> folded;
  };

  // Runs ops_[first..) over `row`; a map continues over a WordRow. With no
  // sink (prepare) it stops at the first register operator or the end and
  // records where in pending_.
  template <typename Row>
  bool run(const Row& row, std::size_t first, EmitSink* sink);
  // Records in pending_ that the packet stopped before ops_[k] over `row`,
  // locating the key when ops_[k] is an exact register op.
  template <typename Row>
  void hold(const Row& row, std::size_t k);
  // The stateful op at ops_[k]: its register update and what follows.
  template <typename Row>
  bool run_stateful(const Row& row, std::size_t k, EmitSink& sink);
  // The row as a Tuple shaped like node_.schemas[schema_index].
  [[nodiscard]] query::Tuple row_tuple(const SourceRow& row, std::size_t schema_index) const;
  [[nodiscard]] query::Tuple row_tuple(const WordRow& row, std::size_t schema_index) const;
  // Gathers a stateful op's key columns into key_w_ / key_s_.
  template <typename Row>
  RegisterChain::KeyColumns gather_key(const CompiledOp& cop, const Row& row);
  [[nodiscard]] query::Tuple key_tuple(const CompiledOp& cop) const;
  void emit(EmitRecord::Kind kind, std::size_t op_index, query::Tuple tuple, EmitSink& sink);

  const query::StreamNode& node_;
  Options opts_;
  std::vector<CompiledOp> ops_;
  CompiledOp* tail_reduce_ = nullptr;  // set when the last op is a reduce
  std::size_t poll_entry_ = 0;
  std::size_t source_width_ = 0;
  RowBuffer rows_[2];  // a map writes the buffer its input row is not in
  // Where prepare() stopped: the op to resume at and its row (null words:
  // the source row); `located` when that op's key is in at/packed.
  struct Pending {
    bool live = false;
    std::size_t op = 0;
    const std::uint64_t* w = nullptr;
    const query::Value* s = nullptr;
    bool located = false;
    RegisterChain::Located at;
    std::vector<std::uint64_t> packed;
  } pending_;
  std::vector<std::uint64_t> key_w_;
  std::vector<const query::Value*> key_s_;
  std::vector<query::Value> match_s_;  // filter_in string match results
  std::uint64_t packets_seen_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t key_reports_ = 0;
  std::uint64_t probe_tally_[kProbeTallyMax + 1] = {};
};

// Counters the evaluation reads per window.
struct SwitchStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t records_emitted = 0;   // packet tuples sent to the SP
  std::uint64_t overflow_records = 0;  // subset of the above due to collisions
  std::uint64_t dropped_packets = 0;   // closed-loop mitigation drops
  std::uint64_t filter_entry_updates = 0;
  std::uint64_t register_resets = 0;
  double control_update_millis = 0.0;  // modelled driver latency
};

class Switch {
 public:
  explicit Switch(SwitchConfig cfg) : cfg_(std::move(cfg)) {}

  // Label this switch carries in its metric names (`sw="<label>"`).
  // Must be set before install(); the fleet uses the shard index, a
  // standalone runtime keeps the default "0".
  void set_obs_label(std::string label) { obs_label_ = std::move(label); }
  [[nodiscard]] const std::string& obs_label() const noexcept { return obs_label_; }

  // Install pipelines. Performs stage layout against the resource model and
  // refuses (returning the layout error) if the programs do not fit.
  [[nodiscard]] std::string install(std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines,
                                    const std::vector<ProgramResources>& resources);

  // Uninstall and hand back the compiled pipelines (a control-plane swap
  // recompiles only changed ones and reinstalls the rest). The switch is
  // left program-less until the next install().
  [[nodiscard]] std::vector<std::unique_ptr<CompiledSwitchQuery>> release_pipelines();

  // The batched hot path: process every pre-materialized source tuple
  // through every installed pipeline, appending mirrored records to the
  // caller-owned sink in arrival order. A Switch must be driven by at most
  // one thread at a time — the fleet pins each switch to a single worker.
  void process_batch(std::span<const query::Tuple> sources, EmitSink& sink);

  // Single-tuple variant of process_batch (same sink contract).
  void process_one(const query::Tuple& source, EmitSink& sink);

  // Process one packet through every installed pipeline; emitted records
  // are appended to `out`.
  void process(const net::Packet& packet, std::vector<EmitRecord>& out);

  // Process a pre-materialized source tuple (compatibility wrapper over
  // process_one for single-packet callers).
  void process_tuple(const query::Tuple& source, std::vector<EmitRecord>& out);

  [[nodiscard]] const std::vector<std::unique_ptr<CompiledSwitchQuery>>& pipelines() const noexcept {
    return pipelines_;
  }
  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }
  [[nodiscard]] const SwitchConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }

  // -- driver surface -------------------------------------------------
  // Update a dynamic filter table (any pipeline that owns `table_name`).
  // Models per-entry update latency; returns number of pipelines updated.
  int update_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  // Reset all registers (end of window). Models reset latency.
  void reset_all_registers();

  // -- closed-loop mitigation (paper §8's long-term goal) -------------
  // Install a drop rule: packets whose source field equals `key` are
  // dropped before any telemetry pipeline sees them. `field` must be a
  // registered packet field. Models the same driver latency as a filter
  // entry update. Returns false for unknown fields.
  bool block(const std::string& field, const query::Value& key);
  void clear_blocks();
  [[nodiscard]] std::size_t blocked_keys() const noexcept;

  // Modelled driver latencies, calibrated to the paper's Tofino
  // micro-benchmark: 200 entry updates ~ 127 ms, register reset ~ 4 ms.
  static constexpr double kMillisPerEntryUpdate = 127.0 / 200.0;
  static constexpr double kMillisPerRegisterReset = 4.0;

 private:
  // Resolve metric handles for the installed pipelines (called once at
  // install) and publish the window's single-writer tallies into the
  // global registry (called from reset_all_registers, before clearing).
  void init_obs_handles();
  void publish_obs();

  struct ObsHandles {
    obs::Counter* packets = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* emit_stream = nullptr;
    obs::Counter* emit_key_report = nullptr;
    obs::Counter* emit_overflow = nullptr;
    obs::Histogram* probe_depth = nullptr;
    // Parallel to pipelines_; inner vector parallel to stateful_op_stats().
    std::vector<std::vector<obs::Gauge*>> occupancy;
    // Same shape; non-null only for HashPipe-backed ops (evicted weight).
    std::vector<std::vector<obs::Gauge*>> evicted;
    // Counters export deltas since the previous publish; these snapshot
    // the last-published cumulative totals.
    std::uint64_t packets_pub = 0;
    std::uint64_t dropped_pub = 0;
    std::uint64_t stream_pub = 0;
    std::uint64_t key_report_pub = 0;
    std::uint64_t overflow_pub = 0;
    std::vector<std::uint64_t> probe_pub;  // flattened [pipeline][depth]
  };

  SwitchConfig cfg_;
  std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines_;
  Layout layout_;
  SwitchStats stats_;
  EmitSink scratch_sink_;  // backs the legacy vector-based wrappers
  std::string obs_label_ = "0";
  ObsHandles obs_;
  // Guard table: source-schema column index -> blocked key values.
  std::vector<std::pair<std::size_t, std::unordered_set<query::Value, query::ValueHasher>>>
      blocks_;
};

}  // namespace sonata::pisa
