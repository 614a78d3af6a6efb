// The stream processor: a windowed dataflow interpreter standing in for
// Spark Streaming (see DESIGN.md substitutions).
//
// Execution model. Tuples are ingested during a window and results are
// produced at window end. A ChainExecutor runs one node's operator chain
// with per-operator keyed state; a tuple may enter at any operator index —
// this is how partitioned execution works:
//   * stateless switch tails stream tuples in at the partition point,
//   * register overflow packets re-enter at the stateful operator that
//     overflowed (the SP re-aggregates them, paper §3.1.3),
//   * end-of-window register polls enter after the reduce (and folded
//     threshold) the switch already applied.
// Joins always run here: children are flushed at window end and hash-joined
// (paper §3.1.2).
//
// Each chain counts the tuples reaching every operator (entered(k)); the
// planner's cost estimator runs this same executor over training windows
// and reads those counts, so the operator semantics live here and in the
// switch pipelines only. Metrics reach the registry solely through
// publish_obs(), which only the live stream processor calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "query/query.h"
#include "query/state_spec.h"
#include "state/engine.h"
#include "util/flat_table.h"

namespace sonata::stream {

class ChainExecutor {
 public:
  // Binds evaluators for all operators of `node` (which must be validated
  // and outlive the executor). `spec` selects the keyed-state engines for
  // the chain's distinct/reduce operators (default: exact FlatTable path,
  // bit-identical to pre-engine behavior).
  explicit ChainExecutor(const query::StreamNode& node,
                         const query::StateSpec& spec = {});

  // Run `t` through ops[entry..). Outputs reaching the chain end are
  // buffered for end_window(). A borrowed tuple is copied only if it is
  // stored (reaches the chain end or a distinct's set), so a replay whose
  // filters drop most tuples copies few; an rvalue is moved where stored.
  void ingest(const query::Tuple& t, std::size_t entry);
  void ingest(query::Tuple&& t, std::size_t entry);

  // Batched ingest: every tuple in `ts` is MOVED through ops[entry..) —
  // the batched data path hands whole shard buffers over without copying
  // a tuple. Callers must treat `ts` as consumed.
  void ingest_batch(std::span<query::Tuple> ts, std::size_t entry);

  // Flush stateful operators (ascending), collect outputs, clear state.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  // Drop the outputs buffered so far; entered() keeps counting them. For
  // callers that read only the counters (the planner's cost estimator).
  void discard_outputs() noexcept { pending_.clear(); }

  // Whether `t` passes the filter_in at ops[k], by the test the chain runs
  // there. Nothing is counted or stored: the planner's estimator decides a
  // dynamic filter's membership once and replays only the passing tuples
  // from ops[k + 1] onwards.
  [[nodiscard]] bool passes(std::size_t k, const query::Tuple& t);

  // Update a dynamic-refinement filter table executed on the SP side.
  bool set_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  // Tuples that reached ops[k] (k == ops.size(): the chain end) since
  // construction, from any entry point or window-end flush. A reduce
  // consumes its inputs: entered(r + 1) grows only as end_window() reports
  // its keys.
  [[nodiscard]] std::uint64_t entered(std::size_t k) const noexcept { return entered_[k]; }

  // After end_window(): publish the ingest tally since the last call, the
  // tables' probe tallies and their load at that window's close.
  void publish_obs();

  // Total keyed-state entries currently held (distinct sets + reduce maps)
  // — the SP-side analogue of register occupancy.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;

  // Entries plus actual memory footprint and the accumulated error bound —
  // a sketch engine's occupancy gauge is meaningless without its (fixed)
  // byte count, so the obs layer publishes both.
  [[nodiscard]] state::StateUsage state_usage() const noexcept;

 private:
  struct BoundOp {
    query::OpKind kind = query::OpKind::kFilter;
    query::Program pred;                              // filter
    std::vector<query::Program> match;                // filter_in
    util::FlatSet entries;                            // filter_in (persists windows)
    query::Tuple probe_scratch;                       // reused filter_in probe key
    std::vector<query::Program> projections;          // map
    std::vector<std::size_t> key_idx;                 // reduce
    std::size_t value_idx = 0;
    // per-window keyed state behind the engine facade: exact mode is the
    // PR 4 flat table verbatim, sketch mode bounds memory (DESIGN.md
    // "Keyed-state engines").
    state::DistinctEngine seen;   // distinct
    state::ReduceEngine agg;      // reduce
  };

  // The filter_in membership test, shared by process() and passes().
  static bool filter_in_holds(BoundOp& op, const query::Tuple& t);

  // The one operator loop behind every ingest path and the reduce flush:
  // runs `in` through ops[i..). `movable` is null or points at `in`, whose
  // storage the loop may then take.
  void process(const query::Tuple& in, query::Tuple* movable, std::size_t i);

  const query::StreamNode& node_;
  std::vector<BoundOp> ops_;
  std::vector<query::Tuple> pending_;
  std::vector<std::uint64_t> entered_;          // size ops + 1, see entered()
  std::vector<std::uint64_t> closing_load_pct_;  // non-empty tables at the last end_window
  std::uint64_t ingested_ = 0;
  std::uint64_t ingested_pub_ = 0;  // last value published to the registry
};

// Executes a whole (sub)tree: join children recursively, then this node's
// chain.
class NodeExecutor {
 public:
  explicit NodeExecutor(const query::StreamNode& node,
                        const query::StateSpec& spec = {});

  [[nodiscard]] const query::StreamNode& node() const noexcept { return node_; }
  [[nodiscard]] ChainExecutor& chain() noexcept { return chain_; }
  [[nodiscard]] NodeExecutor* left() noexcept { return left_.get(); }
  [[nodiscard]] NodeExecutor* right() noexcept { return right_.get(); }

  // Flush children, join their outputs (if a join node), run them through
  // this node's chain, and flush it.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  // Keyed-state usage and publish_obs() over this node's chain and all
  // children.
  [[nodiscard]] state::StateUsage state_usage() const noexcept;
  void publish_obs();

 private:
  const query::StreamNode& node_;
  std::unique_ptr<NodeExecutor> left_;
  std::unique_ptr<NodeExecutor> right_;
  ChainExecutor chain_;
};

// Stream-processor-side execution of one query. Sources are indexed in the
// same DFS order as Query::sources().
class QueryExecutor {
 public:
  explicit QueryExecutor(const query::Query& q);

  // Ingest a tuple into source `source_index` at operator `entry` (copied
  // only where stored, see ChainExecutor::ingest).
  void ingest(int source_index, const query::Tuple& t, std::size_t entry);
  void ingest(int source_index, query::Tuple&& t, std::size_t entry);

  // Batched ingest; tuples in `ts` are moved (see ChainExecutor).
  void ingest_batch(int source_index, std::span<query::Tuple> ts, std::size_t entry);

  // Convenience for unpartitioned (All-SP) execution: materialize the
  // packet once and feed every source at entry 0.
  void ingest_packet(const net::Packet& p);
  void ingest_source_tuple(const query::Tuple& source_tuple);

  // Close the window: run joins and flushes; returns the query's results.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  bool set_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  // Keyed-state entries across the whole executor tree.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;
  [[nodiscard]] state::StateUsage state_usage() const noexcept;
  void publish_obs() { root_->publish_obs(); }

  // Number of source entry points (DFS order). Delivery paths fed by an
  // untrusted wire bounds-check their source index against this.
  [[nodiscard]] std::size_t source_count() const noexcept { return sources_.size(); }

  [[nodiscard]] const query::Query& query() const noexcept { return *query_; }
  [[nodiscard]] const query::Schema& output_schema() const {
    return query_->root()->output_schema();
  }

 private:
  const query::Query* query_;
  std::unique_ptr<NodeExecutor> root_;
  std::vector<NodeExecutor*> sources_;  // DFS order, matches Query::sources()
};

}  // namespace sonata::stream
