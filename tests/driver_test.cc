// Tests for the driver surfaces of Figure 6: the mirrored-report wire
// codec (switch -> emitter), the Spark streaming-driver code generator, and
// the runtime's collision-triggered re-planning loop (paper §5).
#include <gtest/gtest.h>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/fleet.h"
#include "runtime/report.h"
#include "stream/sparkgen.h"
#include "test_trace.h"
#include "util/rng.h"

namespace sonata::runtime {
namespace {

using pisa::EmitRecord;
using query::Tuple;
using query::Value;

// --- report codec ----------------------------------------------------------

EmitRecord sample_record() {
  EmitRecord r;
  r.kind = EmitRecord::Kind::kKeyReport;
  r.qid = 7;
  r.source_index = 1;
  r.level = 24;
  r.op_index = 3;
  r.tuple = Tuple{{Value{std::uint64_t{0xdeadbeef}}, Value{std::uint64_t{42}},
                   Value{std::string("tun.evil.com")}}};
  return r;
}

TEST(ReportCodec, RoundTrip) {
  const EmitRecord r = sample_record();
  const auto bytes = encode_report(r);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_EQ(back->qid, r.qid);
  EXPECT_EQ(back->source_index, r.source_index);
  EXPECT_EQ(back->level, r.level);
  EXPECT_EQ(back->op_index, r.op_index);
  ASSERT_EQ(back->tuple.size(), 3u);
  EXPECT_EQ(back->tuple.at(0).as_uint(), 0xdeadbeefu);
  EXPECT_EQ(back->tuple.at(1).as_uint(), 42u);
  EXPECT_EQ(back->tuple.at(2).as_string(), "tun.evil.com");
}

TEST(ReportCodec, AllKindsRoundTrip) {
  for (const auto kind : {EmitRecord::Kind::kStream, EmitRecord::Kind::kKeyReport,
                          EmitRecord::Kind::kOverflow}) {
    EmitRecord r = sample_record();
    r.kind = kind;
    const auto back = decode_report(encode_report(r));
    ASSERT_TRUE(back);
    EXPECT_EQ(back->kind, kind);
  }
}

TEST(ReportCodec, EmptyTuple) {
  EmitRecord r = sample_record();
  r.tuple = Tuple{};
  const auto back = decode_report(encode_report(r));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->tuple.size(), 0u);
}

TEST(ReportCodec, RejectsBadMagicTruncationAndTrailingBytes) {
  const auto bytes = encode_report(sample_record());
  // Bad magic.
  auto bad = bytes;
  bad[0] = std::byte{0};
  EXPECT_FALSE(decode_report(bad));
  // Every truncation point.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_FALSE(decode_report(std::span{bytes.data(), keep})) << keep;
  }
  // Trailing junk.
  auto extended = bytes;
  extended.push_back(std::byte{1});
  EXPECT_FALSE(decode_report(extended));
}

TEST(ReportCodec, FuzzNeverCrashes) {
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> junk(rng.uniform(48));
    for (auto& b : junk) b = static_cast<std::byte>(rng());
    (void)decode_report(junk);
  }
  // Corrupt real reports byte by byte.
  const auto bytes = encode_report(sample_record());
  for (int i = 0; i < 500; ++i) {
    auto mutated = bytes;
    mutated[rng.uniform(mutated.size())] = static_cast<std::byte>(rng());
    const auto back = decode_report(mutated);  // may decode or not; no crash
    (void)back;
  }
}

TEST(ReportCodec, EmitterParsesEncodedStreamEquivalently) {
  // Round-tripping every mirrored record through the wire codec must not
  // change what the stream processor computes.
  queries::Thresholds th;
  th.newly_opened = 5;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  pisa::CompiledSwitchQuery::Options opts;
  opts.qid = 1;
  opts.partition = 2;  // stateless tail: streams mapped tuples
  pisa::CompiledSwitchQuery prog(*q.sources()[0], opts);

  stream::QueryExecutor direct(q);
  stream::QueryExecutor via_wire(q);
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto p = net::Packet::tcp(0, static_cast<std::uint32_t>(rng()),
                                    static_cast<std::uint32_t>(rng.uniform(16)), 1, 80,
                                    net::tcp_flags::kSyn, 40);
    const auto tuple = query::materialize_tuple(p);
    if (auto rec = prog.process(tuple)) {
      direct.ingest(rec->source_index, rec->tuple, rec->op_index);
      const auto decoded = decode_report(encode_report(*rec));
      ASSERT_TRUE(decoded);
      via_wire.ingest(decoded->source_index, decoded->tuple, decoded->op_index);
    }
  }
  const auto a = direct.end_window();
  const auto b = via_wire.end_window();
  ASSERT_EQ(a.size(), b.size());
}

// --- spark codegen -----------------------------------------------------------

TEST(SparkGen, ResidualChainForPartitionedQuery) {
  queries::Thresholds th;
  th.newly_opened = 40;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  // Switch ran filter+map; Spark resumes at the reduce.
  stream::SparkPipeline s;
  s.node = q.sources()[0];
  s.partition = 2;
  const auto code = stream::generate_spark(q, {s});
  EXPECT_NE(code.find("emitterStream(qid = 1"), std::string::npos);
  EXPECT_NE(code.find(".groupBy(window(col(\"ts\"), windowLen), col(\"dIP\"))"),
            std::string::npos);
  EXPECT_NE(code.find("sum(col(\"count\"))"), std::string::npos);
  EXPECT_NE(code.find("(col(\"count\") > lit(40L))"), std::string::npos);
  // The switch-executed SYN filter must NOT reappear.
  EXPECT_EQ(code.find("tcp.flags"), std::string::npos);
  EXPECT_NE(code.find("reportResults(qid = 1"), std::string::npos);
}

TEST(SparkGen, FullQueryWhenNothingOnSwitch) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  stream::SparkPipeline s;
  s.node = q.sources()[0];
  s.partition = 0;
  const auto code = stream::generate_spark(q, {s});
  EXPECT_NE(code.find("tcp.flags"), std::string::npos);  // filter runs here now
}

TEST(SparkGen, JoinQueryEmitsJoinAndPostOps) {
  queries::Thresholds th;
  auto q = queries::make_slowloris(th, util::seconds(3));
  std::vector<stream::SparkPipeline> sources;
  int i = 0;
  for (const auto* src : q.sources()) {
    sources.push_back({src, src->ops.size(), i++});  // everything on switch
  }
  const auto code = stream::generate_spark(q, {sources});
  EXPECT_NE(code.find("joinOn(Seq(\"dIP\")"), std::string::npos);
  EXPECT_NE(code.find("ratio"), std::string::npos);
  EXPECT_NE(code.find("source0"), std::string::npos);
  EXPECT_NE(code.find("source1"), std::string::npos);
}

TEST(SparkGen, PayloadAndDnsFunctions) {
  queries::Thresholds th;
  auto q = queries::make_zorro(th, util::seconds(3));
  std::vector<stream::SparkPipeline> sources;
  int i = 0;
  for (const auto* src : q.sources()) sources.push_back({src, 0, i++});
  const auto code = stream::generate_spark(q, sources);
  EXPECT_NE(code.find(".contains(\"zorro\")"), std::string::npos);

  auto flux = queries::make_fast_flux(th, util::seconds(3));
  const auto flux_code =
      stream::generate_spark(flux, {{flux.sources()[0], 0, 0}});
  EXPECT_NE(flux_code.find("col(\"dns.rr.name\")"), std::string::npos);
}

// --- re-planning loop ---------------------------------------------------------

TEST(Replan, OverflowTriggersRecommendationAndReplanFixesIt) {
  const auto& sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));

  // Deliberately undersized registers (traffic "drifted" past training).
  planner::PlannerConfig bad;
  bad.mode = planner::PlanMode::kMaxDP;
  bad.register_headroom = 0.02;
  bad.min_register_entries = 16;
  bad.register_depth = 1;
  const auto bad_plan = planner::Planner(bad).plan(qs, sc.trace);
  // The operator's reaction (paper §5): re-plan with the observed traffic.
  planner::PlannerConfig good;
  good.mode = planner::PlanMode::kMaxDP;
  const auto new_plan = planner::Planner(good).plan(qs, sc.trace);

  for (const testing::Topology& topo : testing::kPolicyTopologies) {
    SCOPED_TRACE(testing::topology_label(topo));
    Fleet rt(bad_plan, topo.switches, topo.workers);
    rt.set_replan_policy({.overflow_threshold = 0.01, .consecutive_windows = 2});
    (void)rt.run_trace(sc.trace);
    ASSERT_TRUE(rt.replan_recommended()) << "undersized registers must overflow";

    Fleet rt2(new_plan, topo.switches, topo.workers);
    rt2.set_replan_policy({.overflow_threshold = 0.01, .consecutive_windows = 2});
    (void)rt2.run_trace(sc.trace);
    EXPECT_FALSE(rt2.replan_recommended());
    EXPECT_LT(rt2.overflow_fraction(), rt.overflow_fraction());
  }
}

TEST(Replan, QuietTrafficNeverTriggers) {
  const auto& sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  const auto plan = planner::Planner(cfg).plan(qs, sc.trace);
  for (const testing::Topology& topo : testing::kPolicyTopologies) {
    SCOPED_TRACE(testing::topology_label(topo));
    Fleet rt(plan, topo.switches, topo.workers);
    (void)rt.run_trace(sc.trace);
    EXPECT_FALSE(rt.replan_recommended());
  }
}

}  // namespace
}  // namespace sonata::runtime
