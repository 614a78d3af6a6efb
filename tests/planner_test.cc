#include <gtest/gtest.h>

#include <algorithm>

#include "net/dns.h"
#include "pisa/compile.h"
#include "planner/estimator.h"
#include "planner/planner.h"
#include "planner/refine.h"
#include "queries/catalog.h"
#include "query/parser.h"
#include "stream/executor.h"
#include "test_trace.h"
#include "util/hash.h"
#include "util/ip.h"
#include "util/stats.h"

namespace sonata::planner {
namespace {

using query::OpKind;
using query::Tuple;
using query::Value;
using util::ipv4;

// --- refinement key tracing -------------------------------------------------

TEST(Refine, TraceSimpleQuery) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = find_refinement_key(*q.sources()[0]);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->key_column, "dIP");
  EXPECT_EQ(key->source_field, "dIP");
  EXPECT_FALSE(key->is_dns);
  ASSERT_TRUE(key->intro_map_op);
  EXPECT_EQ(*key->intro_map_op, 1u);
}

TEST(Refine, TraceThroughRename) {
  // SYN-flood's synack sub-query maps dIP from the packet's *source* field.
  queries::Thresholds th;
  auto q = queries::make_syn_flood(th, util::seconds(3));
  const auto sources = q.sources();
  ASSERT_EQ(sources.size(), 3u);
  const auto key = find_refinement_key(*sources[1]);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->key_column, "dIP");
  EXPECT_EQ(key->source_field, "sIP");
}

TEST(Refine, TraceDnsKey) {
  queries::Thresholds th;
  auto q = queries::make_fast_flux(th, util::seconds(3));
  const auto key = find_refinement_key(*q.sources()[0]);
  ASSERT_TRUE(key);
  EXPECT_TRUE(key->is_dns);
  EXPECT_EQ(key->source_field, "dns.rr.name");
  EXPECT_EQ(key->finest_level(), kFinestDnsLevel);
}

TEST(Refine, RawPacketSourceHasNoStatefulKey) {
  queries::Thresholds th;
  auto q = queries::make_zorro(th, util::seconds(3));
  const auto sources = q.sources();
  ASSERT_EQ(sources.size(), 2u);
  // The left (raw) side has no reduce: no stateful key of its own...
  EXPECT_FALSE(find_refinement_key(*sources[0]));
  // ...but traces the join key to a hierarchical field.
  const auto traced = trace_refinement_key(*sources[0], "dIP");
  ASSERT_TRUE(traced);
  EXPECT_EQ(traced->source_field, "dIP");
  EXPECT_FALSE(traced->intro_map_op);
}

TEST(Refine, AggregateColumnDoesNotTrace) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  EXPECT_FALSE(trace_refinement_key(*q.sources()[0], "count"));
}

// --- query augmentation ------------------------------------------------------

TEST(Refine, RefinedNodeShape) {
  queries::Thresholds th;
  th.newly_opened = 100;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);

  RefineOptions opts;
  opts.level = 16;
  opts.prev_level = 8;
  opts.filter_table_name = "tbl";
  opts.relaxed_threshold = 70;
  const auto node = make_refined_node(*q.sources()[0], key, opts);

  // filter_in + original 4 ops.
  ASSERT_EQ(node->ops.size(), 5u);
  EXPECT_EQ(node->ops[0].kind, OpKind::kFilterIn);
  EXPECT_EQ(node->ops[0].table_name, "tbl");
  // The key map projection is coarsened to /16.
  const auto& proj = node->ops[2].projections[0];
  EXPECT_EQ(proj.expr->kind, query::Expr::Kind::kIpPrefix);
  EXPECT_EQ(proj.expr->level, 16);
  // Relaxed threshold installed.
  EXPECT_EQ(node->ops[4].predicate->rhs->constant.as_uint(), 70u);
  // Schemas recomputed.
  EXPECT_EQ(node->schemas.size(), node->ops.size() + 1);
}

TEST(Refine, FinestLevelIsIdentity) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);
  RefineOptions opts;
  opts.level = kFinestIpLevel;
  const auto node = make_refined_node(*q.sources()[0], key, opts);
  ASSERT_EQ(node->ops.size(), q.sources()[0]->ops.size());
  EXPECT_EQ(node->ops[1].projections[0].expr->kind, query::Expr::Kind::kCol);
}

TEST(Refine, RawSourceGetsInPlaceCoarseningMap) {
  queries::Thresholds th;
  auto q = queries::make_zorro(th, util::seconds(3));
  const auto key = *trace_refinement_key(*q.sources()[0], "dIP");
  RefineOptions opts;
  opts.level = 24;
  const auto node = make_refined_node(*q.sources()[0], key, opts);
  // Original 1 op (telnet filter) + appended in-place map.
  ASSERT_EQ(node->ops.size(), 2u);
  EXPECT_EQ(node->ops[1].kind, OpKind::kMap);
  // Schema preserved (payload still present for the downstream keyword scan).
  EXPECT_TRUE(node->output_schema().index_of("payload"));
  EXPECT_EQ(node->output_schema().size(), q.sources()[0]->output_schema().size());
}

TEST(Refine, LevelQueryJoinsAtCoarseGranularity) {
  queries::Thresholds th;
  th.slowloris_bytes = 50;
  th.slowloris_ratio = 100;
  auto q = queries::make_slowloris(th, util::seconds(3));
  std::vector<RefinementKey> keys;
  for (const auto* src : q.sources()) keys.push_back(*find_refinement_key(*src));
  const auto lq = make_level_query(q, keys, 8, {std::nullopt, std::nullopt});
  // Output key column is still named dIP and the query validates.
  EXPECT_TRUE(lq.root()->output_schema().index_of("dIP"));
}

// --- instrumented runs -------------------------------------------------------

TEST(Estimator, InstrumentedCountsMatchSemantics) {
  queries::Thresholds th;
  th.newly_opened = 2;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));

  std::vector<Tuple> tuples;
  auto add_syn = [&](std::uint32_t dst, int n) {
    for (int i = 0; i < n; ++i) {
      tuples.push_back(query::materialize_tuple(
          net::Packet::tcp(0, ipv4(1, 1, 1, std::uint32_t(i + 1)), dst, 1, 80,
                           net::tcp_flags::kSyn, 40)));
    }
  };
  add_syn(ipv4(9, 9, 9, 9), 5);  // passes Th=2
  add_syn(ipv4(8, 8, 8, 8), 1);  // below Th
  tuples.push_back(query::materialize_tuple(
      net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kAck, 40)));  // dropped by filter

  const auto res = run_instrumented(*q.sources()[0], tuples, nullptr);
  ASSERT_EQ(res.n_after.size(), 5u);
  EXPECT_EQ(res.n_after[0], 7u);  // every packet
  EXPECT_EQ(res.n_after[1], 6u);  // past the SYN filter
  EXPECT_EQ(res.n_after[2], 6u);  // map keeps the count
  EXPECT_EQ(res.n_after[3], 2u);  // one report per distinct key
  EXPECT_EQ(res.n_after[4], 1u);  // only one key crosses the threshold
  EXPECT_EQ(res.stateful_keys.at(2), 2u);
}

TEST(Estimator, InstrumentedFrontFilterRestrictsTraffic) {
  queries::Thresholds th;
  th.newly_opened = 1;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);
  RefineOptions opts;
  opts.level = 32;
  opts.prev_level = 8;
  opts.filter_table_name = "tbl";
  const auto node = make_refined_node(*q.sources()[0], key, opts);

  std::vector<Tuple> tuples;
  for (int i = 0; i < 4; ++i) {
    tuples.push_back(query::materialize_tuple(net::Packet::tcp(
        0, 1, ipv4(9, 0, 0, 1), 1, 2, net::tcp_flags::kSyn, 40)));
    tuples.push_back(query::materialize_tuple(net::Packet::tcp(
        0, 1, ipv4(10, 0, 0, 1), 1, 2, net::tcp_flags::kSyn, 40)));
  }
  const std::vector<Tuple> winners{Tuple{{Value{std::uint64_t{ipv4(9, 0, 0, 0)}}}}};
  const auto res = run_instrumented(*node, tuples, &winners);
  EXPECT_EQ(res.n_after[1], 4u);  // only the 9/8 packets pass the filter_in
}

// --- zero-fill contract: nothing past the first reduce (and its folded
// threshold) is counted, even where tuples flushed at window end would
// flow on through later operators.

// The single source chain of a one-query DSL text.
query::Query parse_one(std::string_view text) {
  auto parsed = query::parse_queries(text);
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed.queries.at(0));
}

// Eight TCP SYNs: 9.9.9.9 from sources 1..5, 8.8.8.8 from source 1, and
// source 1 -> 9.9.9.9 repeated twice (duplicate pairs). Three UDP packets
// from source 7 to 9.9.9.9.
std::vector<Tuple> zero_fill_traffic() {
  std::vector<Tuple> tuples;
  const auto syn = [&](std::uint32_t src, std::uint32_t dst) {
    tuples.push_back(query::materialize_tuple(net::Packet::tcp(
        0, ipv4(1, 1, 1, src), dst, 1000, 80, net::tcp_flags::kSyn, 40)));
  };
  for (std::uint32_t s = 1; s <= 5; ++s) syn(s, ipv4(9, 9, 9, 9));
  syn(1, ipv4(8, 8, 8, 8));
  syn(1, ipv4(9, 9, 9, 9));
  syn(1, ipv4(9, 9, 9, 9));
  for (int i = 0; i < 3; ++i) {
    tuples.push_back(query::materialize_tuple(
        net::Packet::udp(0, ipv4(1, 1, 1, 7), ipv4(9, 9, 9, 9), 53, 53, 60)));
  }
  return tuples;
}

std::vector<std::size_t> keys_of(const std::map<std::size_t, std::uint64_t>& m) {
  std::vector<std::size_t> out;
  for (const auto& [k, v] : m) out.push_back(k);
  return out;
}

TEST(Estimator, ReduceWithoutThresholdStopsCounting) {
  const auto q = parse_one(R"(
query q id 1 window 3s {
  packetStream
    .filter(proto == 6)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .map(dIP = dIP, count = count)
})");
  const auto res = run_instrumented(*q.sources()[0], zero_fill_traffic(), nullptr);
  // The trailing map would see both keys, but only the reduce's reports
  // count: one per key, and nothing after them.
  EXPECT_EQ(res.n_after, (std::vector<std::uint64_t>{11, 8, 8, 2, 0}));
  EXPECT_EQ(keys_of(res.stateful_keys), (std::vector<std::size_t>{2}));
  EXPECT_EQ(res.stateful_keys.at(2), 2u);
}

TEST(Estimator, NonFoldableFilterAfterReduceIsZeroFilled) {
  // A filter on a key column cannot fold into the reduce table.
  const auto q = parse_one(R"(
query q id 1 window 3s {
  packetStream
    .filter(proto == 6)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(dIP > 0)
    .map(dIP = dIP)
})");
  const auto& src = *q.sources()[0];
  ASSERT_FALSE(pisa::foldable_threshold(src, 3));
  const auto res = run_instrumented(src, zero_fill_traffic(), nullptr);
  EXPECT_EQ(res.n_after, (std::vector<std::uint64_t>{11, 8, 8, 2, 0, 0}));
  EXPECT_EQ(keys_of(res.stateful_keys), (std::vector<std::size_t>{2}));
}

TEST(Estimator, SecondReduceIsNotCounted) {
  const auto q = parse_one(R"(
query q id 1 window 3s {
  packetStream
    .filter(proto == 6)
    .map(sIP = sIP, dIP = dIP, count = 1)
    .reduce(keys=(sIP, dIP), sum(count))
    .filter(count > 1)
    .map(sIP = sIP, n = 1)
    .reduce(keys=(sIP), sum(n))
    .filter(n > 0)
})");
  const auto& src = *q.sources()[0];
  ASSERT_TRUE(pisa::foldable_threshold(src, 3));
  const auto res = run_instrumented(src, zero_fill_traffic(), nullptr);
  // Six (sIP, dIP) pairs, one of which (1 -> 9.9.9.9, three SYNs)
  // passes the folded threshold; the second reduce and its threshold stay
  // zero, and only the first reduce sizes a register.
  EXPECT_EQ(res.n_after, (std::vector<std::uint64_t>{11, 8, 8, 6, 1, 0, 0, 0}));
  EXPECT_EQ(keys_of(res.stateful_keys), (std::vector<std::size_t>{2}));
  EXPECT_EQ(res.stateful_keys.at(2), 6u);
}

TEST(Estimator, DistinctOnlyChainCountsUniqueTuples) {
  const auto q = parse_one(R"(
query q id 1 window 3s {
  packetStream
    .map(sIP = sIP, dIP = dIP)
    .distinct()
})");
  const auto res = run_instrumented(*q.sources()[0], zero_fill_traffic(), nullptr);
  // Six TCP pairs plus one UDP pair.
  EXPECT_EQ(res.n_after, (std::vector<std::uint64_t>{11, 11, 7}));
  EXPECT_EQ(keys_of(res.stateful_keys), (std::vector<std::size_t>{1}));
  EXPECT_EQ(res.stateful_keys.at(1), 7u);
}

TEST(Estimator, StatelessChainCountsEveryStep) {
  const auto q = parse_one(R"(
query q id 1 window 3s {
  packetStream
    .filter(proto == 17)
    .map(dIP = dIP)
})");
  const auto res = run_instrumented(*q.sources()[0], zero_fill_traffic(), nullptr);
  EXPECT_EQ(res.n_after, (std::vector<std::uint64_t>{11, 3, 3}));
  EXPECT_TRUE(res.stateful_keys.empty());
}

// --- full estimator ----------------------------------------------------------

class EstimatorTest : public ::testing::Test {
 protected:
  static const testing::Scenario& scenario() {
    static const testing::Scenario sc = testing::make_scenario();
    return sc;
  }
  static const std::vector<TupleWindow>& windows() {
    static const std::vector<TupleWindow> w =
        materialize_windows(scenario().trace, util::seconds(3));
    return w;
  }
};

TEST_F(EstimatorTest, Query1Refinable) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {1, 2});
  ASSERT_TRUE(est.refinable());
  EXPECT_EQ(est.levels(), (std::vector<int>{8, 16, 24, 32}));
}

TEST_F(EstimatorTest, CostsDecreaseAlongTheChain) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  const auto& head = est.transition(0, kNoPrevLevel, 32);
  // n_after is non-increasing in the partition point.
  for (std::size_t k = 1; k < head.n_after.size(); ++k) {
    EXPECT_LE(head.n_after[k], head.n_after[k - 1]) << k;
  }
  // Executing /32 after /8 winners processes less than from scratch (the
  // scenario injects several SYN-heavy attacks, so multiple /8s win).
  const auto& refined = est.transition(0, 8, 32);
  EXPECT_LT(refined.n_after[1], head.n_after[1]);
  EXPECT_LT(refined.n_after[1], head.n_after[0] / 4);
}

TEST_F(EstimatorTest, RelaxedThresholdsAreRelaxedButPositive) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  // Margin 1.0: the relaxed threshold is exactly the training minimum - 1.
  CostEstimator est(q, windows(), {8, 16, 24}, {}, /*relax_margin=*/1.0);
  const auto th8 = est.relaxed_threshold(0, 8);
  ASSERT_TRUE(th8);
  // The /8 aggregate of the flood victim is at least the victim's own
  // count, so the unscaled relaxed threshold exceeds the original.
  EXPECT_GE(*th8, scenario().thresholds.newly_opened);
  // Finest level keeps the original threshold.
  EXPECT_FALSE(est.relaxed_threshold(0, 32));

  // The default margin (0.5) halves the bound — more conservative.
  CostEstimator margin_est(q, windows(), {8, 16, 24}, {});
  const auto th8m = margin_est.relaxed_threshold(0, 8);
  ASSERT_TRUE(th8m);
  EXPECT_LT(*th8m, *th8);
  EXPECT_GT(*th8m, 0u);
}

TEST_F(EstimatorTest, WinnersContainVictimPrefix) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  // Window 1 (t in [3,6)) has steady flood traffic.
  const auto& win = est.winners(8, 1);
  bool found = false;
  for (const auto& w : win) {
    found = found || w.at(0).as_uint() == util::ipv4_prefix(scenario().syn_victim, 8);
  }
  EXPECT_TRUE(found);
  // Winners are few: refinement zooms in.
  EXPECT_LT(win.size(), 40u);
}

TEST_F(EstimatorTest, NonRefinableQueryHasSingleLevel) {
  auto q = queries::make_syn_flood(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  EXPECT_FALSE(est.refinable());
  EXPECT_EQ(est.levels(), (std::vector<int>{32}));
  // Transition still works (partitioning without refinement).
  const auto& t = est.transition(0, kNoPrevLevel, 32);
  EXPECT_GT(t.n_after[0], 0u);
}

// --- the estimator's shared replays against one replay per quantity ----------

// Two training windows with an attack behind every catalog query.
std::vector<TupleWindow> shared_replay_windows() {
  trace::BackgroundConfig bg;
  bg.duration_sec = 6.0;
  bg.flows_per_sec = 120.0;
  bg.client_pool = 2000;
  bg.server_pool = 400;
  trace::TraceBuilder builder(7);
  builder.background(bg);
  trace::SynFloodConfig flood;
  flood.victim = ipv4(99, 1, 0, 25);
  flood.start_sec = 0.5;
  flood.duration_sec = 5.0;
  flood.pps = 600;
  builder.add(flood);
  trace::SshBruteForceConfig ssh;
  ssh.victim = ipv4(77, 2, 0, 10);
  ssh.start_sec = 0.5;
  ssh.duration_sec = 5.0;
  ssh.attempts_per_sec = 60;
  builder.add(ssh);
  trace::SuperspreaderConfig spread;
  spread.spreader = ipv4(55, 3, 0, 7);
  spread.start_sec = 0.5;
  spread.duration_sec = 5.0;
  spread.distinct_destinations = 1500;
  builder.add(spread);
  trace::PortScanConfig scan;
  scan.scanner = ipv4(44, 4, 0, 3);
  scan.target = ipv4(201, 10, 0, 1);
  scan.start_sec = 0.5;
  scan.duration_sec = 5.0;
  scan.last_port = 1024;
  builder.add(scan);
  trace::DdosConfig ddos;
  ddos.victim = ipv4(66, 5, 0, 9);
  ddos.start_sec = 0.5;
  ddos.duration_sec = 5.0;
  ddos.distinct_sources = 1500;
  ddos.pps = 600;
  builder.add(ddos);
  trace::SlowlorisConfig slow;
  slow.victim = ipv4(33, 7, 0, 4);
  slow.start_sec = 0.5;
  slow.duration_sec = 5.0;
  slow.attacker_count = 4;
  slow.conns_per_attacker = 200;
  builder.add(slow);
  trace::ZorroConfig zorro;
  zorro.attacker = ipv4(203, 0, 113, 9);
  zorro.victim = ipv4(22, 8, 0, 6);
  zorro.start_sec = 0.5;
  zorro.probe_duration_sec = 5.0;
  zorro.shell_at_sec = 1.0;
  builder.add(zorro);
  trace::DnsTunnelConfig tunnel;
  tunnel.client = ipv4(11, 9, 0, 8);
  tunnel.resolver = ipv4(8, 8, 8, 8);
  tunnel.start_sec = 0.5;
  tunnel.duration_sec = 5.0;
  tunnel.queries_per_sec = 100;
  builder.add(tunnel);
  trace::DnsReflectionConfig reflection;
  reflection.victim = ipv4(12, 10, 0, 3);
  reflection.start_sec = 0.5;
  reflection.duration_sec = 5.0;
  reflection.pps = 400;
  builder.add(reflection);
  trace::MaliciousDomainConfig flux;
  flux.resolver = ipv4(8, 8, 4, 4);
  flux.start_sec = 0.5;
  flux.duration_sec = 5.0;
  builder.add(flux);
  return materialize_windows(builder.build(), util::seconds(3));
}

// The estimator's quantities recomputed the slow way, each from its own
// replay through public functions: a transition is run_instrumented over a
// make_refined_node chain, a level's winners are the key column of the
// make_winner_query output, and a relaxed threshold is the minimum
// aggregate of the chain truncated after its last reduce over the coarsened
// rows that satisfy the whole query.
class ReferenceEstimator {
 public:
  ReferenceEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                     const CostEstimator& shape, double relax_margin)
      : q_(q), windows_(windows), keys_(shape.keys()), levels_(shape.levels()),
        refinable_(shape.refinable()), relax_margin_(relax_margin) {}

  std::optional<std::uint64_t> relaxed(int s, int level) {
    if (!refinable_ || level == levels_.back()) return std::nullopt;
    const auto key = std::make_pair(s, level);
    if (!relaxed_.contains(key)) relaxed_[key] = compute_relaxed(s, level);
    return relaxed_.at(key);
  }

  const std::vector<Tuple>& winners(int level, std::size_t w) {
    if (!winners_.contains(level)) {
      const auto sources = q_.sources();
      std::vector<std::shared_ptr<query::StreamNode>> per_source;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (!has_stateful_op(*sources[s])) {
          per_source.push_back(nullptr);
          continue;
        }
        RefineOptions opts;
        opts.level = level;
        opts.relaxed_threshold = relaxed(static_cast<int>(s), level);
        per_source.push_back(make_refined_node(*sources[s], keys_[s], opts));
      }
      const query::Query lq = make_winner_query(q_, level, per_source);
      const auto idx = lq.root()->output_schema().index_of(keys_.front().key_column);
      auto& per_window = winners_[level];
      for (const TupleWindow& window : windows_) {
        stream::QueryExecutor exec(lq);
        for (const Tuple& t : window) exec.ingest_source_tuple(t);
        std::vector<Tuple> keys;
        for (const Tuple& out : exec.end_window()) {
          if (!idx) continue;
          Tuple k{{out.at(*idx)}};
          if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(std::move(k));
        }
        per_window.push_back(std::move(keys));
      }
    }
    return winners_.at(level).at(w);
  }

  TransitionCost transition(int s, int prev, int level) {
    const query::StreamNode& src = *q_.sources().at(static_cast<std::size_t>(s));
    std::shared_ptr<query::StreamNode> node;
    if (refinable_) {
      RefineOptions opts;
      opts.level = level;
      opts.prev_level = prev;
      opts.filter_table_name = "est";
      opts.relaxed_threshold = relaxed(s, level);
      node = make_refined_node(src, keys_[static_cast<std::size_t>(s)], opts);
    }
    std::vector<std::vector<std::uint64_t>> n(node ? node->ops.size() + 1 : src.ops.size() + 1);
    std::map<std::size_t, std::vector<std::uint64_t>> k;
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      const auto run = run_instrumented(node ? *node : src, windows_[w],
                                        prev == kNoPrevLevel ? nullptr : &winners(prev, w));
      for (std::size_t i = 0; i < run.n_after.size(); ++i) n[i].push_back(run.n_after[i]);
      for (const auto& [op, keys] : run.stateful_keys) k[op].push_back(keys);
    }
    TransitionCost cost;
    for (auto& samples : n) cost.n_after.push_back(util::median_u64(samples));
    for (auto& [op, samples] : k) cost.stateful_keys[op] = util::median_u64(samples);
    return cost;
  }

 private:
  std::optional<std::uint64_t> compute_relaxed(int s, int level) {
    const query::StreamNode& src = *q_.sources().at(static_cast<std::size_t>(s));
    const RefinementKey& key = keys_[static_cast<std::size_t>(s)];
    std::size_t reduce = src.ops.size();
    for (std::size_t i = 0; i < src.ops.size(); ++i) {
      if (src.ops[i].kind == OpKind::kReduce) reduce = i;
    }
    if (reduce == src.ops.size() || !pisa::foldable_threshold(src, reduce + 1)) {
      return std::nullopt;
    }
    const auto out_idx = q_.root()->output_schema().index_of(key.key_column);
    const auto fine_idx = src.schemas[reduce + 1].index_of(key.key_column);
    if (!out_idx || !fine_idx) return std::nullopt;

    RefineOptions opts;
    opts.level = level;
    auto truncated = make_refined_node(src, key, opts);
    for (std::size_t i = truncated->ops.size(); i-- > 0;) {
      if (truncated->ops[i].kind == OpKind::kReduce) {
        truncated->ops.resize(i + 1);
        break;
      }
    }
    EXPECT_EQ(query::validate_stream_node(*truncated), "");
    const auto kidx = truncated->output_schema().index_of(key.key_column);
    if (!kidx) return std::nullopt;

    std::optional<std::uint64_t> min_agg;
    for (const TupleWindow& window : windows_) {
      // Keys the whole query reports in this window.
      std::vector<Value> satisfying;
      stream::QueryExecutor whole(q_);
      for (const Tuple& t : window) whole.ingest_source_tuple(t);
      for (const Tuple& out : whole.end_window()) satisfying.push_back(out.at(*out_idx));
      // The source's own reports whose key satisfies the query, coarsened.
      std::vector<Tuple> coarse_rows;
      stream::ChainExecutor fine(src);
      for (const Tuple& t : window) fine.ingest(t, 0);
      for (Tuple row : fine.end_window()) {
        if (std::find(satisfying.begin(), satisfying.end(), row.at(*fine_idx)) ==
            satisfying.end()) {
          continue;
        }
        row.values.pop_back();
        Value& v = row.values.at(*kidx);
        v = key.is_dns ? Value{net::dns_name_prefix(v.as_string(),
                                                    static_cast<std::size_t>(level))}
                       : Value{std::uint64_t{util::ipv4_prefix(
                             static_cast<std::uint32_t>(v.as_uint()), level)}};
        coarse_rows.push_back(std::move(row));
      }
      if (coarse_rows.empty()) continue;
      stream::ChainExecutor coarse(*truncated);
      for (const Tuple& t : window) coarse.ingest(t, 0);
      for (Tuple row : coarse.end_window()) {
        const std::uint64_t agg = row.values.back().as_uint();
        row.values.pop_back();
        if (std::find(coarse_rows.begin(), coarse_rows.end(), row) == coarse_rows.end()) continue;
        min_agg = min_agg ? std::min(*min_agg, agg) : agg;
      }
    }
    if (!min_agg) return std::nullopt;
    const auto scaled =
        static_cast<std::uint64_t>(static_cast<double>(*min_agg) * relax_margin_);
    return scaled > 0 ? scaled - 1 : 0;
  }

  const query::Query& q_;
  const std::vector<TupleWindow>& windows_;
  std::vector<RefinementKey> keys_;
  std::vector<int> levels_;
  bool refinable_;
  double relax_margin_;
  std::map<std::pair<int, int>, std::optional<std::uint64_t>> relaxed_;
  std::map<int, std::vector<std::vector<Tuple>>> winners_;
};

TEST(Estimator, SharedReplayMatchesReferenceReplays) {
  const auto windows = shared_replay_windows();
  ASSERT_GE(windows.size(), 2u);
  queries::Thresholds th;
  th.newly_opened = 600;
  th.superspreader = 250;
  th.port_scan = 150;
  th.ddos = 600;
  th.slowloris_bytes = 30000;
  th.slowloris_ratio = 1500;
  th.zorro_probes = 40;
  th.dns_tunnel = 100;
  th.dns_reflection = 300;
  th.fast_flux = 60;
  std::vector<query::Query> qs = queries::full_catalog(th, util::seconds(3));
  // Shapes the shared replay leaves to their own replays: a reduce keyed on
  // the raw field (coarsening lands after the threshold), two reduces, and
  // sketched state (its executors differ from the estimator's exact ones).
  qs.push_back(parse_one(R"(
query raw_key_bytes id 90 window 3s {
  packetStream
    .filter(proto == 6)
    .reduce(keys=(dIP), sum(pktlen))
    .filter(pktlen > 20000)
})"));
  qs.push_back(parse_one(R"(
query two_reduces id 91 window 3s {
  packetStream
    .filter(proto == 6)
    .map(sIP = sIP, dIP = dIP, count = 1)
    .reduce(keys=(sIP, dIP), sum(count))
    .filter(count > 0)
    .map(sIP = sIP, n = 1)
    .reduce(keys=(sIP), sum(n))
    .filter(n > 100)
})"));
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));
  query::StateSpec sketch;
  sketch.kind = query::StateSpec::Kind::kSketch;
  qs.back().set_state_spec(sketch);

  std::size_t relaxed_found = 0;
  std::size_t nonempty_winners = 0;
  bool saw_join = false;
  bool saw_unrefinable = false;
  for (const query::Query& q : qs) {
    SCOPED_TRACE(q.name());
    const auto sources = q.sources();
    saw_join = saw_join || sources.size() > 1;
    // Two fresh estimators read the quantities in opposite orders, so both
    // the derived and the lazily computed paths are hit.
    CostEstimator forward(q, windows, {8, 16, 24}, {1, 2});
    CostEstimator backward(q, windows, {8, 16, 24}, {1, 2});
    saw_unrefinable = saw_unrefinable || !forward.refinable();
    ReferenceEstimator ref(q, windows, forward, 0.5);
    const std::vector<int>& levels = forward.levels();
    const std::vector<int> coarse(levels.begin(), levels.end() - 1);

    std::vector<std::tuple<int, int, int>> transitions;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (std::size_t li = 0; li < levels.size(); ++li) {
        transitions.emplace_back(static_cast<int>(s), kNoPrevLevel, levels[li]);
        for (std::size_t pi = 0; pi < li; ++pi) {
          transitions.emplace_back(static_cast<int>(s), levels[pi], levels[li]);
        }
      }
    }
    const auto check_transition = [&](CostEstimator& est, int s, int prev, int level) {
      SCOPED_TRACE("s" + std::to_string(s) + " L" + std::to_string(prev) + "->" +
                   std::to_string(level));
      const TransitionCost expected = ref.transition(s, prev, level);
      const TransitionCost& got = est.transition(s, prev, level);
      EXPECT_EQ(got.n_after, expected.n_after);
      EXPECT_EQ(got.stateful_keys, expected.stateful_keys);
    };
    const auto check_relaxed = [&](CostEstimator& est, int s, int level) {
      SCOPED_TRACE("s" + std::to_string(s) + " relaxed L" + std::to_string(level));
      EXPECT_EQ(est.relaxed_threshold(s, level), ref.relaxed(s, level));
    };
    const auto check_winners = [&](CostEstimator& est, int level) {
      for (std::size_t w = 0; w < windows.size(); ++w) {
        SCOPED_TRACE("winners L" + std::to_string(level) + " w" + std::to_string(w));
        EXPECT_EQ(est.winners(level, w), ref.winners(level, w));
      }
    };

    for (const auto& [s, prev, level] : transitions) check_transition(forward, s, prev, level);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (const int level : levels) check_relaxed(forward, static_cast<int>(s), level);
    }
    for (const int level : coarse) check_winners(forward, level);

    for (const int level : coarse) check_winners(backward, level);
    for (std::size_t s = sources.size(); s-- > 0;) {
      for (const int level : levels) check_relaxed(backward, static_cast<int>(s), level);
    }
    for (auto it = transitions.rbegin(); it != transitions.rend(); ++it) {
      const auto& [s, prev, level] = *it;
      check_transition(backward, s, prev, level);
    }

    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (const int level : coarse) {
        relaxed_found += ref.relaxed(static_cast<int>(s), level) ? 1 : 0;
      }
    }
    for (const int level : coarse) {
      for (std::size_t w = 0; w < windows.size(); ++w) {
        nonempty_winners += ref.winners(level, w).empty() ? 0 : 1;
      }
    }
  }
  // The trace must exercise the derivations, not only their empty cases.
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_unrefinable);
  EXPECT_GE(relaxed_found, 30u);
  EXPECT_GE(nonempty_winners, 60u);
}

// --- planner -----------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  static const testing::Scenario& scenario() {
    static const testing::Scenario sc = testing::make_scenario();
    return sc;
  }
  static const std::vector<TupleWindow>& windows() {
    static const std::vector<TupleWindow> w =
        materialize_windows(scenario().trace, util::seconds(3));
    return w;
  }
  static std::vector<query::Query> queries() {
    return queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  }
  static Plan plan_with(PlanMode mode, const std::vector<query::Query>& qs) {
    PlannerConfig cfg;
    cfg.mode = mode;
    Planner planner(cfg);
    return planner.plan_windows(qs, windows());
  }
};

// Everything a plan installs, as text: the summary, every program's tables
// and the stage layout. Planning speed-ups must leave it byte-identical.
std::string plan_fingerprint(const Plan& plan) {
  std::string out = plan.summary();
  for (const auto& r : plan.resources) {
    out += "program q" + std::to_string(r.qid) + " s" + std::to_string(r.source_index) + " L" +
           std::to_string(r.level) + " p" + std::to_string(r.partition) + " metadata=" +
           std::to_string(r.metadata_bits) + "\n";
    for (const auto& t : r.tables) {
      out += "  " + t.name + " op" + std::to_string(static_cast<int>(t.op)) + "@" +
             std::to_string(t.op_index) + (t.stateful ? " stateful" : "") + " bits=" +
             std::to_string(t.register_bits) + " actions=" + std::to_string(t.actions) + "\n";
    }
  }
  const auto& layout = plan.layout;
  out += "layout feasible=" + std::to_string(layout.feasible) + " metadata=" +
         std::to_string(layout.metadata_bits_used) + " " + layout.error + "\n";
  for (const auto& stages : layout.table_stages) {
    out += " ";
    for (const int st : stages) out += " " + std::to_string(st);
    out += "\n";
  }
  for (const auto& u : layout.stages) {
    out += "  stage " + std::to_string(u.stateful) + "/" + std::to_string(u.stateless_actions) +
           "/" + std::to_string(u.register_bits) + "\n";
  }
  return out;
}

TEST_F(PlannerTest, CatalogPlansArePinned) {
  struct Pin {
    PlanMode mode;
    std::uint64_t est_total_tuples;
    std::uint64_t fingerprint_fnv;
  };
  static constexpr Pin kPins[] = {
      {PlanMode::kSonata, 5225, 12960096232473367579ULL},
      {PlanMode::kAllSP, 17429, 15604987969129259932ULL},
      {PlanMode::kFilterDP, 17429, 13288873415366852414ULL},
      {PlanMode::kMaxDP, 6001, 11287348645234370882ULL},
      {PlanMode::kFixRef, 17429, 9779222972067641712ULL},
  };
  const auto qs = queries();
  for (const Pin& pin : kPins) {
    const Plan plan = plan_with(pin.mode, qs);
    const std::string fingerprint = plan_fingerprint(plan);
    EXPECT_EQ(plan.est_total_tuples, pin.est_total_tuples) << to_string(pin.mode);
    EXPECT_EQ(util::fnv1a64(fingerprint), pin.fingerprint_fnv)
        << to_string(pin.mode) << "\n" << fingerprint;
  }
}

TEST_F(PlannerTest, AllSpMirrorsEverything) {
  const auto qs = queries();
  const Plan plan = plan_with(PlanMode::kAllSP, qs);
  EXPECT_TRUE(plan.raw_mirror);
  EXPECT_EQ(plan.est_total_tuples, plan.est_window_packets);
  for (const auto& pq : plan.queries) {
    for (const auto& p : pq.pipelines) EXPECT_EQ(p.partition, 0u);
  }
}

TEST_F(PlannerTest, MaxDpPutsWorkOnTheSwitch) {
  const auto qs = queries();
  const Plan plan = plan_with(PlanMode::kMaxDP, qs);
  ASSERT_TRUE(plan.layout.feasible);
  std::size_t installed = 0;
  for (const auto& pq : plan.queries) {
    EXPECT_EQ(pq.chain.size(), 1u);  // no refinement
    for (const auto& p : pq.pipelines) installed += p.partition > 0 ? 1 : 0;
  }
  EXPECT_GT(installed, 0u);
}

TEST_F(PlannerTest, SonataBeatsBaselines) {
  const auto qs = queries();
  const Plan sonata = plan_with(PlanMode::kSonata, qs);
  const Plan all_sp = plan_with(PlanMode::kAllSP, qs);
  const Plan filter_dp = plan_with(PlanMode::kFilterDP, qs);
  const Plan max_dp = plan_with(PlanMode::kMaxDP, qs);
  EXPECT_LE(sonata.est_total_tuples, max_dp.est_total_tuples);
  EXPECT_LE(sonata.est_total_tuples, filter_dp.est_total_tuples);
  // On this deliberately small, attack-heavy test trace the gap is a few x;
  // the paper-scale gap (orders of magnitude) is reproduced by the Figure 7
  // benchmark, which runs a much larger trace.
  EXPECT_LT(sonata.est_total_tuples, all_sp.est_total_tuples / 3);
}

TEST_F(PlannerTest, SonataRefinesWhenRegistersAreScarce) {
  // With abundant register memory the whole /32 reduce fits and refinement
  // is pointless (paper §3.3's example: 2,500 Kb < B). Starve the register
  // memory so the full-granularity reduce no longer fits: Sonata must now
  // zoom in through a coarser level instead of falling back to streaming.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));

  PlannerConfig roomy;
  roomy.mode = PlanMode::kSonata;
  const Plan roomy_plan = Planner(roomy).plan_windows(qs, windows());
  ASSERT_EQ(roomy_plan.queries.size(), 1u);
  EXPECT_EQ(roomy_plan.queries[0].chain.size(), 1u);  // no refinement needed

  PlannerConfig scarce = roomy;
  scarce.switch_config.max_bits_per_register = 48 * 1024;
  scarce.switch_config.register_bits_per_stage = 48 * 1024;
  const Plan scarce_plan = Planner(scarce).plan_windows(qs, windows());
  ASSERT_EQ(scarce_plan.queries.size(), 1u);
  EXPECT_GE(scarce_plan.queries[0].chain.size(), 2u);
  EXPECT_TRUE(scarce_plan.layout.feasible);
  // And refinement keeps the load way below the streaming fallback.
  PlannerConfig scarce_maxdp = scarce;
  scarce_maxdp.mode = PlanMode::kMaxDP;
  const Plan fallback = Planner(scarce_maxdp).plan_windows(qs, windows());
  EXPECT_LT(scarce_plan.est_total_tuples, fallback.est_total_tuples / 2);
}

TEST_F(PlannerTest, FixRefUsesAllLevels) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  const Plan plan = plan_with(PlanMode::kFixRef, qs);
  EXPECT_EQ(plan.queries[0].chain, (std::vector<int>{8, 16, 24, 32}));
}

TEST_F(PlannerTest, TinySwitchForcesWorkToStreamProcessor) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));

  PlannerConfig small;
  small.mode = PlanMode::kMaxDP;
  small.switch_config.stages = 2;  // not enough for filter+map+idx+registers
  const Plan plan = Planner(small).plan_windows(qs, windows());
  PlannerConfig big;
  big.mode = PlanMode::kMaxDP;
  const Plan big_plan = Planner(big).plan_windows(qs, windows());
  EXPECT_GT(plan.est_total_tuples, big_plan.est_total_tuples);
}

TEST_F(PlannerTest, PlanRespectsDelayBound) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.max_delay_windows = 2;
  const Plan plan = Planner(cfg).plan_windows(qs, windows());
  EXPECT_LE(plan.queries[0].chain.size(), 2u);
}

TEST_F(PlannerTest, ExecQueriesValidatePerLevel) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_slowloris(scenario().thresholds, util::seconds(3)));
  const Plan plan = plan_with(PlanMode::kSonata, qs);
  for (const auto& pq : plan.queries) {
    EXPECT_EQ(pq.exec_queries.size(), pq.chain.size());
    for (const auto& [level, q] : pq.exec_queries) {
      EXPECT_TRUE(q.root()->output_schema().index_of("dIP")) << level;
    }
  }
}

}  // namespace
}  // namespace sonata::planner
