// Tests for the dynamic query control plane (DESIGN.md "Query control
// plane"): window-barrier submit/withdraw bit-identity against a static
// engine, structured admission diagnostics with per-tenant budgets, the
// incremental planner's cost-equality guarantee against from-scratch
// branch-and-bound, and the tenant DSL / admit-script front-ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "planner/incremental.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/parser.h"
#include "run_config.h"
#include "runtime/control_plane.h"
#include "runtime/engine.h"
#include "runtime/runtime.h"
#include "test_trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace sonata::runtime {
namespace {

using planner::AdmissionDiagnostic;

// Split a trace into consecutive window-sized packet chunks.
std::vector<std::vector<net::Packet>> split_windows(const std::vector<net::Packet>& trace,
                                                    util::Nanos window) {
  std::vector<std::vector<net::Packet>> chunks;
  for (const auto& p : trace) {
    const std::uint64_t w = util::window_index(p.ts, window);
    if (w >= chunks.size()) chunks.resize(w + 1);
    chunks[w].push_back(p);
  }
  return chunks;
}

std::map<query::QueryId, std::vector<query::Tuple>> results_of(const WindowStats& ws) {
  std::map<query::QueryId, std::vector<query::Tuple>> out;
  for (const auto& r : ws.results) out[r.qid] = r.outputs;
  return out;
}

// --- submit/withdraw bit-identity vs a static engine -----------------------

// A query submitted before window W and withdrawn before window W+k must
// make windows [W, W+k) bit-identical to a static engine that admitted the
// same set at build time. The test uses non-refinable queries: dynamic
// refinement winners deliberately do not survive a plan swap (a carried
// pipeline behaves exactly like a freshly compiled one), so cross-window
// filter state is the one part of a static run a swap does not replay.
TEST(AdmissionBitIdentity, SubmitThenWithdrawMatchesStaticEngine) {
  const auto sc = testing::make_scenario(11, 120.0);
  const util::Nanos window = util::seconds(3);

  auto make_queries = [&] {
    std::vector<query::Query> qs;
    qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, window));
    qs.push_back(queries::make_superspreader(sc.thresholds, window));
    qs.push_back(queries::make_port_scan(sc.thresholds, window));
    for (auto& q : qs) q.set_refinable(false);
    return qs;
  };

  const auto chunks = split_windows(sc.trace, window);
  ASSERT_GE(chunks.size(), 4u);

  // Static engine: all three queries admitted at build time.
  auto qs = make_queries();
  auto static_built = EngineBuilder().training(sc.trace).admit(qs).build();
  ASSERT_TRUE(static_built) << static_built.error().to_string();
  auto& st = **static_built;

  // Dynamic engine: the first two at build time; port_scan arrives later.
  qs = make_queries();
  const query::Query port_scan = qs.back();
  qs.pop_back();
  auto dynamic_built = EngineBuilder().training(sc.trace).admit(qs).build();
  ASSERT_TRUE(dynamic_built) << dynamic_built.error().to_string();
  auto& dyn = **dynamic_built;

  std::vector<WindowStats> s_stats;
  for (std::size_t w = 0; w < 4; ++w) s_stats.push_back(st.process_window(chunks[w]));

  // Stage the submission during window 0; the swap lands at its close, so
  // port_scan is live for windows 1 and 2. The withdrawal staged during
  // window 2 removes it from window 3 on.
  const auto handle = dyn.submit(port_scan);
  ASSERT_TRUE(handle) << handle.error().to_string();
  std::vector<WindowStats> d_stats;
  d_stats.push_back(dyn.process_window(chunks[0]));
  d_stats.push_back(dyn.process_window(chunks[1]));
  auto withdrawn = dyn.withdraw(*handle);
  ASSERT_TRUE(withdrawn) << withdrawn.error().to_string();
  d_stats.push_back(dyn.process_window(chunks[2]));
  d_stats.push_back(dyn.process_window(chunks[3]));

  // The swaps happened exactly at the window-0 and window-2 barriers.
  EXPECT_TRUE(d_stats[0].plan_swapped);
  EXPECT_FALSE(d_stats[1].plan_swapped);
  EXPECT_TRUE(d_stats[2].plan_swapped);
  EXPECT_FALSE(d_stats[3].plan_swapped);
  EXPECT_EQ(d_stats[1].plan_version, d_stats[2].plan_version);
  EXPECT_GT(d_stats[1].plan_version, d_stats[0].plan_version);
  EXPECT_GT(d_stats[3].plan_version, d_stats[2].plan_version);

  const query::QueryId scan_qid = port_scan.id();
  for (std::size_t w = 0; w < 4; ++w) {
    const auto expect = results_of(s_stats[w]);
    const auto got = results_of(d_stats[w]);
    if (w == 1 || w == 2) {
      // Full active-set match: every query, the raw switch->SP traffic, and
      // the window totals are bit-identical to the static engine.
      EXPECT_EQ(got, expect) << "window " << w;
      EXPECT_EQ(d_stats[w].tuples_to_sp, s_stats[w].tuples_to_sp) << "window " << w;
      EXPECT_EQ(d_stats[w].raw_mirror_packets, s_stats[w].raw_mirror_packets) << "window " << w;
    } else {
      // port_scan is inactive on the dynamic engine; the always-on queries
      // still match the static run exactly.
      EXPECT_EQ(got.count(scan_qid), 0u) << "window " << w;
      for (const auto& [qid, outputs] : expect) {
        if (qid == scan_qid) continue;
        ASSERT_TRUE(got.count(qid)) << "window " << w << " qid " << qid;
        EXPECT_EQ(got.at(qid), outputs) << "window " << w << " qid " << qid;
      }
    }
    EXPECT_EQ(d_stats[w].packets, s_stats[w].packets) << "window " << w;
  }
}

// --- admission diagnostics --------------------------------------------------

TEST(AdmissionDiagnostics, BuildRejectionNamesBindingConstraint) {
  const auto sc = testing::make_scenario(12, 80.0);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .tenant("tiny", {.stage_tables = 0})
                   .admit(queries::make_superspreader(sc.thresholds, util::seconds(3)), "tiny")
                   .build();
  ASSERT_FALSE(built);
  const AdmissionDiagnostic& d = built.error();
  EXPECT_EQ(d.code, AdmissionDiagnostic::Code::kStageBudget);
  EXPECT_EQ(d.tenant, "tiny");
  EXPECT_EQ(d.constraint, "stage_tables");
  EXPECT_EQ(d.budget, 0u);
  EXPECT_GE(d.required, 1u);
  ASSERT_TRUE(d.smallest_admitting.has_value());
  EXPECT_GE(d.smallest_admitting->stage_tables, d.required);
  const std::string text = d.to_string();
  EXPECT_NE(text.find("tiny"), std::string::npos);
  EXPECT_NE(text.find("stage_tables"), std::string::npos);
}

TEST(AdmissionDiagnostics, SmallestAdmittingBudgetActuallyAdmits) {
  const auto sc = testing::make_scenario(13, 80.0);
  const util::Nanos window = util::seconds(3);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .tenant("tiny", {.stage_tables = 0})
                   .admit(queries::make_newly_opened_tcp(sc.thresholds, window))
                   .build();
  ASSERT_TRUE(built) << built.error().to_string();
  auto& engine = **built;

  const query::Query scan = queries::make_port_scan(sc.thresholds, window);
  auto rejected = engine.submit(scan, "tiny");
  ASSERT_FALSE(rejected);
  ASSERT_TRUE(rejected.error().smallest_admitting.has_value());

  // Redefining the tenant with exactly the diagnostic's smallest admitting
  // budget must flip the same submission to accepted.
  engine.control_plane()->define_tenant("tiny", *rejected.error().smallest_admitting);
  auto accepted = engine.submit(scan, "tiny");
  ASSERT_TRUE(accepted) << accepted.error().to_string();

  const auto chunks = split_windows(sc.trace, window);
  ASSERT_FALSE(chunks.empty());
  const WindowStats ws = engine.process_window(chunks[0]);
  EXPECT_TRUE(ws.plan_swapped);

  const auto usage = engine.control_plane()->planner().tenant_usage("tiny");
  EXPECT_EQ(usage.queries, 1u);
  EXPECT_GE(usage.stage_tables, 1u);
}

TEST(AdmissionDiagnostics, OperatorErrorsAreStructured) {
  const auto sc = testing::make_scenario(14, 80.0);
  const util::Nanos window = util::seconds(3);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .admit(queries::make_newly_opened_tcp(sc.thresholds, window))
                   .build();
  ASSERT_TRUE(built) << built.error().to_string();
  auto& engine = **built;

  auto unknown_tenant = engine.submit(queries::make_ddos(sc.thresholds, window), "nobody");
  ASSERT_FALSE(unknown_tenant);
  EXPECT_EQ(unknown_tenant.error().code, AdmissionDiagnostic::Code::kUnknownTenant);

  auto duplicate = engine.submit(queries::make_newly_opened_tcp(sc.thresholds, window));
  ASSERT_FALSE(duplicate);
  EXPECT_EQ(duplicate.error().code, AdmissionDiagnostic::Code::kDuplicateQueryId);

  auto bogus = engine.withdraw(QueryHandle{9999});
  ASSERT_FALSE(bogus);
  EXPECT_EQ(bogus.error().code, AdmissionDiagnostic::Code::kUnknownHandle);

  // A driver constructed directly around a pre-planned Plan (bypassing
  // EngineBuilder) has no control plane at all.
  planner::Planner planner{planner::PlannerConfig{}};
  std::vector<query::Query> base{queries::make_ddos(sc.thresholds, window)};
  Runtime legacy(planner.plan(base, sc.trace));
  auto no_cp = legacy.submit(queries::make_port_scan(sc.thresholds, window));
  ASSERT_FALSE(no_cp);
  EXPECT_EQ(no_cp.error().code, AdmissionDiagnostic::Code::kNoControlPlane);
}

// --- incremental planning == from-scratch B&B -------------------------------

// Fuzz randomized submit/withdraw sequences: after every mutation, the
// incremental planner's objective must equal a from-scratch plan_windows()
// over the surviving queries in admission order — that is the certification
// contract incremental.h documents. Some steps admit a random batch of the
// inactive queries at once (admit_batch), so later single admissions and
// withdrawals also run on the state a batch leaves.
TEST(IncrementalPlanner, FuzzCostEqualsFromScratchPlan) {
  const auto sc = testing::make_scenario(15, 60.0);
  planner::PlannerConfig cfg;
  const auto windows = planner::materialize_windows(sc.trace, cfg.window);
  ASSERT_FALSE(windows.empty());

  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, cfg.window));
  qs.push_back(queries::make_superspreader(sc.thresholds, cfg.window));
  qs.push_back(queries::make_port_scan(sc.thresholds, cfg.window));
  qs.push_back(queries::make_ddos(sc.thresholds, cfg.window));
  qs.push_back(queries::make_ssh_brute_force(sc.thresholds, cfg.window));
  qs.push_back(queries::make_syn_flood(sc.thresholds, cfg.window));

  planner::IncrementalPlanner inc(cfg, windows);
  planner::Planner scratch(cfg);

  std::vector<std::size_t> admitted_order;  // indices into qs, admission order
  std::vector<std::optional<planner::AdmitId>> handle(qs.size());
  util::Rng rng(99);

  for (int step = 0; step < 24; ++step) {
    const std::size_t i = rng.uniform(qs.size());
    if (rng.uniform(3) == 0) {
      // A batch: a random subset of the inactive queries in random order.
      std::vector<std::size_t> batch;
      for (std::size_t j = 0; j < qs.size(); ++j) {
        if (!handle[j] && rng.uniform(2) == 0) batch.push_back(j);
      }
      for (std::size_t j = batch.size(); j > 1; --j) std::swap(batch[j - 1], batch[rng.uniform(j)]);
      std::vector<planner::IncrementalPlanner::Admission> admissions;
      for (const std::size_t j : batch) admissions.push_back({&qs[j], ""});
      const std::uint64_t full_before = inc.full_solves();
      auto ids = inc.admit_batch(admissions);
      ASSERT_TRUE(ids) << ids.error().to_string();
      ASSERT_EQ(ids->size(), batch.size());
      for (std::size_t k = 0; k < batch.size(); ++k) {
        handle[batch[k]] = (*ids)[k];
        admitted_order.push_back(batch[k]);
      }
      // One solve per batch, however many queries it carries.
      EXPECT_EQ(inc.full_solves(), full_before + (batch.empty() ? 0 : 1)) << "step " << step;
    } else if (handle[i]) {
      ASSERT_TRUE(inc.withdraw(*handle[i]));
      handle[i].reset();
      admitted_order.erase(std::find(admitted_order.begin(), admitted_order.end(), i));
    } else {
      auto id = inc.admit(qs[i]);
      ASSERT_TRUE(id) << id.error().to_string();
      handle[i] = *id;
      admitted_order.push_back(i);
    }

    if (admitted_order.empty()) {
      EXPECT_EQ(inc.objective(), 0u) << "step " << step;
      continue;
    }
    std::vector<query::Query> active;
    for (const std::size_t idx : admitted_order) active.push_back(qs[idx]);
    const planner::Plan reference = scratch.plan_windows(active, windows);
    EXPECT_EQ(inc.objective(), reference.est_total_tuples)
        << "step " << step << " with " << active.size() << " active queries";
  }
  // The whole point: most mutations must certify without a joint re-solve.
  EXPECT_GT(inc.incremental_solves(), 0u);
}

// A batch is all or nothing: a duplicate id (against the active set or
// inside the batch), an undefined tenant or a budgeted tenant rejects it
// before anything is placed, and the planner keeps admitting afterwards.
TEST(IncrementalPlanner, BatchRejectsWholeAndLeavesStateUsable) {
  const auto sc = testing::make_scenario(15, 60.0);
  planner::PlannerConfig cfg;
  const auto windows = planner::materialize_windows(sc.trace, cfg.window);
  const query::Query a = queries::make_newly_opened_tcp(sc.thresholds, cfg.window);
  const query::Query b = queries::make_superspreader(sc.thresholds, cfg.window);
  const query::Query c = queries::make_port_scan(sc.thresholds, cfg.window);
  planner::IncrementalPlanner inc(cfg, windows);
  inc.define_tenant("metered", planner::TenantBudget{4, planner::kUnlimited});

  using Admission = planner::IncrementalPlanner::Admission;
  const auto rejected = [&](std::vector<Admission> batch, AdmissionDiagnostic::Code code) {
    auto ids = inc.admit_batch(batch);
    ASSERT_FALSE(ids);
    EXPECT_EQ(ids.error().code, code) << ids.error().to_string();
    EXPECT_EQ(inc.active_queries(), 1u);
  };
  ASSERT_TRUE(inc.admit(a));
  rejected({{&b, ""}, {&a, ""}}, AdmissionDiagnostic::Code::kDuplicateQueryId);
  rejected({{&b, ""}, {&b, ""}}, AdmissionDiagnostic::Code::kDuplicateQueryId);
  rejected({{&b, ""}, {&c, "nobody"}}, AdmissionDiagnostic::Code::kUnknownTenant);
  rejected({{&b, ""}, {&c, "metered"}}, AdmissionDiagnostic::Code::kValidation);

  auto ids = inc.admit_batch(std::vector<Admission>{{&b, ""}, {&c, ""}});
  ASSERT_TRUE(ids);
  ASSERT_EQ(ids->size(), 2u);
  EXPECT_EQ(inc.query((*ids)[0]), &b);
  EXPECT_EQ(inc.query((*ids)[1]), &c);
  ASSERT_TRUE(inc.withdraw((*ids)[0]));
  const planner::Plan reference =
      planner::Planner(cfg).plan_windows(std::vector<query::Query>{a, c}, windows);
  EXPECT_EQ(inc.objective(), reference.est_total_tuples);
  EXPECT_EQ(inc.snapshot_plan().queries.size(), 2u);
}

// --- tenant DSL -------------------------------------------------------------

TEST(TenantDsl, DeclarationsAndTagsParse) {
  const auto result = query::parse_queries(R"(
tenant ops budget stages=8 bits=1048576
tenant 'best effort' budget bits=4096

query newly_opened_tcp id 1 window 3s tenant ops {
  packetStream
    .filter(proto == 6 && tcp.flags == 2)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 5)
}

query heavy_udp id 2 window 3s {
  packetStream
    .filter(proto == 17)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 100)
}
)");
  ASSERT_TRUE(result.ok()) << result.errors[0].to_string();
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_EQ(result.tenants[0].name, "ops");
  EXPECT_EQ(result.tenants[0].stage_tables, 8u);
  EXPECT_EQ(result.tenants[0].register_bits, 1048576u);
  EXPECT_EQ(result.tenants[1].name, "best effort");
  EXPECT_EQ(result.tenants[1].stage_tables, query::kNoTenantLimit);
  EXPECT_EQ(result.tenants[1].register_bits, 4096u);
  ASSERT_EQ(result.query_tenants.size(), 2u);
  EXPECT_EQ(result.query_tenants[0], "ops");
  EXPECT_EQ(result.query_tenants[1], "");
}

TEST(TenantDsl, RejectsUndeclaredTenantAndEmptyBudget) {
  const auto undeclared = query::parse_queries(R"(
query q id 1 window 3s tenant ghost {
  packetStream
    .filter(proto == 6)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 5)
}
)");
  ASSERT_FALSE(undeclared.ok());
  EXPECT_NE(undeclared.errors[0].to_string().find("ghost"), std::string::npos);
  EXPECT_TRUE(undeclared.queries.empty());

  const auto empty_budget = query::parse_queries("tenant ops budget\n");
  ASSERT_FALSE(empty_budget.ok());
  EXPECT_NE(empty_budget.errors[0].to_string().find("at least one"), std::string::npos);
}

// --- admit scripts -----------------------------------------------------------

TEST(AdmitScript, ParsesSortsAndValidates) {
  const auto actions = tools::parse_admit_script(R"(
# comment line
5 withdraw suspicious_dns
2 submit suspicious_dns tenant ops   # trailing comment
3 submit port_scan
)");
  ASSERT_TRUE(actions) << actions.error();
  ASSERT_EQ(actions->size(), 3u);
  EXPECT_EQ((*actions)[0].window, 2u);
  EXPECT_TRUE((*actions)[0].submit);
  EXPECT_EQ((*actions)[0].query, "suspicious_dns");
  EXPECT_EQ((*actions)[0].tenant, "ops");
  EXPECT_EQ((*actions)[1].window, 3u);
  EXPECT_EQ((*actions)[1].tenant, "");
  EXPECT_EQ((*actions)[2].window, 5u);
  EXPECT_FALSE((*actions)[2].submit);

  EXPECT_FALSE(tools::parse_admit_script("0 submit q\n"));     // window 0 is static admission
  EXPECT_FALSE(tools::parse_admit_script("x submit q\n"));     // bad window
  EXPECT_FALSE(tools::parse_admit_script("1 frobnicate q\n")); // bad verb
  EXPECT_FALSE(tools::parse_admit_script("1 submit\n"));       // missing query
  EXPECT_FALSE(tools::parse_admit_script("1 withdraw q tenant t\n"));  // tenant on withdraw
  EXPECT_FALSE(tools::parse_admit_script("1 submit q tenant\n"));      // missing tenant name
  EXPECT_FALSE(tools::parse_admit_script("1 submit q tenant t junk\n"));
}

}  // namespace
}  // namespace sonata::runtime
