// Property-based and parameterized sweeps over the core invariants:
// hashing/registers, prefix lattices, wire round-trips, instrumented-run
// monotonicity, layout constraint enforcement, window isolation, and
// refinement conservativeness.
#include <gtest/gtest.h>

#include "net/wire.h"
#include "pisa/layout.h"
#include "pisa/register.h"
#include "planner/estimator.h"
#include "planner/planner.h"
#include "pisa/compile.h"
#include "queries/catalog.h"
#include "stream/executor.h"
#include "trace/trace.h"
#include "util/ip.h"
#include "util/rng.h"

namespace sonata {
namespace {

using query::ReduceFn;
using query::Tuple;
using query::Value;

// --- register chains ---------------------------------------------------

struct ChainParam {
  std::size_t entries;
  int depth;
  std::size_t keys;
};

// Names and prints a case by its fields, so test names are the same in
// every build (gtest would otherwise print the struct's raw bytes).
std::string chain_param_name(const ChainParam& p) {
  return "n" + std::to_string(p.entries) + "_d" + std::to_string(p.depth) + "_k" +
         std::to_string(p.keys);
}
void PrintTo(const ChainParam& p, std::ostream* os) { *os << chain_param_name(p); }

class RegisterChainProperty : public ::testing::TestWithParam<ChainParam> {};

TEST_P(RegisterChainProperty, StoredPlusOverflowEqualsDistinctKeys) {
  const auto p = GetParam();
  pisa::RegisterChain chain(
      {.entries_per_register = p.entries, .depth = p.depth, .key_bits = 64, .value_bits = 32});
  util::Rng rng(p.entries * 31 + static_cast<std::uint64_t>(p.depth));
  std::uint64_t overflowed_keys = 0;
  for (std::size_t k = 0; k < p.keys; ++k) {
    const auto r = chain.update(Tuple{{Value{rng()}}}, 1, ReduceFn::kSum);
    overflowed_keys += r.overflow ? 1 : 0;
  }
  EXPECT_EQ(chain.keys_stored() + overflowed_keys, p.keys);
  EXPECT_LE(chain.keys_stored(), static_cast<std::uint64_t>(p.entries) * p.depth);
}

TEST_P(RegisterChainProperty, SumOfAggregatesEqualsStoredInserts) {
  const auto p = GetParam();
  pisa::RegisterChain chain(
      {.entries_per_register = p.entries, .depth = p.depth, .key_bits = 64, .value_bits = 32});
  util::Rng rng(p.entries * 57 + static_cast<std::uint64_t>(p.depth));
  std::uint64_t stored_inserts = 0;
  for (std::size_t i = 0; i < p.keys * 3; ++i) {
    // Repeated keys from a small domain so aggregates exceed 1.
    const auto r = chain.update(Tuple{{Value{rng() % p.keys}}}, 1, ReduceFn::kSum);
    stored_inserts += r.stored ? 1 : 0;
  }
  std::uint64_t sum = 0;
  for (const auto& [key, value] : chain.entries()) sum += value;
  EXPECT_EQ(sum, stored_inserts);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegisterChainProperty,
                         ::testing::Values(ChainParam{64, 1, 32}, ChainParam{64, 1, 64},
                                           ChainParam{64, 2, 96}, ChainParam{256, 1, 256},
                                           ChainParam{256, 3, 512}, ChainParam{1024, 2, 2048},
                                           ChainParam{1024, 4, 4096}),
                         [](const ::testing::TestParamInfo<ChainParam>& info) {
                           return chain_param_name(info.param);
                         });

// Collision rate falls monotonically with depth at fixed load.
TEST(RegisterChainProperty, DeeperIsNeverWorse) {
  for (const double load : {0.5, 1.0, 1.5}) {
    double prev_rate = 1.0;
    for (int d = 1; d <= 4; ++d) {
      pisa::RegisterChain chain(
          {.entries_per_register = 2048, .depth = d, .key_bits = 64, .value_bits = 32});
      util::Rng rng(7);
      const auto keys = static_cast<std::size_t>(2048 * load);
      for (std::size_t k = 0; k < keys; ++k) {
        chain.update(Tuple{{Value{rng()}}}, 1, ReduceFn::kSum);
      }
      const double rate =
          static_cast<double>(chain.overflow_count()) / static_cast<double>(keys);
      EXPECT_LE(rate, prev_rate + 1e-9) << "load " << load << " d " << d;
      prev_rate = rate;
    }
  }
}

// --- prefix lattices -----------------------------------------------------

class PrefixLattice : public ::testing::TestWithParam<int> {};

TEST_P(PrefixLattice, CoarseningCommutes) {
  const int fine = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(fine));
  for (int i = 0; i < 200; ++i) {
    const auto addr = static_cast<std::uint32_t>(rng());
    for (int coarse = 0; coarse <= fine; coarse += 4) {
      EXPECT_EQ(util::ipv4_prefix(util::ipv4_prefix(addr, fine), coarse),
                util::ipv4_prefix(addr, coarse));
    }
  }
}

TEST_P(PrefixLattice, CoarserKeySpaceIsSmaller) {
  const int fine = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(fine) + 99);
  std::set<std::uint32_t> fine_keys, coarse_keys;
  for (int i = 0; i < 2000; ++i) {
    const auto addr = static_cast<std::uint32_t>(rng());
    fine_keys.insert(util::ipv4_prefix(addr, fine));
    coarse_keys.insert(util::ipv4_prefix(addr, fine / 2));
  }
  EXPECT_LE(coarse_keys.size(), fine_keys.size());
}

INSTANTIATE_TEST_SUITE_P(Levels, PrefixLattice, ::testing::Values(8, 16, 24, 32));

TEST(DnsLattice, CoarseningCommutesOnRandomNames) {
  util::Rng rng(3);
  static const char* kLabels[] = {"a", "bb", "ccc", "data", "evil", "www", "x9"};
  for (int i = 0; i < 300; ++i) {
    std::string name;
    const int labels = 1 + static_cast<int>(rng.uniform(5));
    for (int l = 0; l < labels; ++l) {
      if (l) name += ".";
      name += kLabels[rng.uniform(std::size(kLabels))];
    }
    for (std::size_t fine = 0; fine <= 5; ++fine) {
      for (std::size_t coarse = 0; coarse <= fine; ++coarse) {
        EXPECT_EQ(net::dns_name_prefix(net::dns_name_prefix(name, fine), coarse),
                  net::dns_name_prefix(name, coarse))
            << name;
      }
    }
  }
}

// --- wire round trips ------------------------------------------------------

TEST(WireProperty, RandomPacketsRoundTrip) {
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    net::Packet p;
    p.src_ip = static_cast<std::uint32_t>(rng());
    p.dst_ip = static_cast<std::uint32_t>(rng());
    const int kind = static_cast<int>(rng.uniform(3));
    p.proto = kind == 0 ? 6 : kind == 1 ? 17 : 1;
    p.ttl = static_cast<std::uint8_t>(rng.uniform(1, 255));
    if (kind != 2) {
      p.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
      p.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    }
    if (kind == 0) p.tcp_flags = static_cast<std::uint8_t>(rng.uniform(64));
    // Declared length with or without attached payload.
    const std::size_t hdr = 20 + (kind == 0 ? 20u : kind == 1 ? 8u : 8u);
    if (rng.bernoulli(0.4)) {
      p.with_payload(std::string(rng.uniform(1, 60), 'x'));
    }
    p.total_len = static_cast<std::uint16_t>(
        std::max<std::size_t>(p.total_len, hdr + rng.uniform(1200)));

    const auto frame = net::serialize(p);
    const auto back = net::parse(frame);
    ASSERT_TRUE(back) << i;
    EXPECT_EQ(back->src_ip, p.src_ip);
    EXPECT_EQ(back->dst_ip, p.dst_ip);
    EXPECT_EQ(back->proto, p.proto);
    EXPECT_EQ(back->ttl, p.ttl);
    EXPECT_EQ(back->total_len, p.total_len);  // declared length preserved
    if (kind == 0) {
      EXPECT_EQ(back->tcp_flags, p.tcp_flags);
      EXPECT_EQ(back->src_port, p.src_port);
    }
  }
}

TEST(WireProperty, ParseNeverCrashesOnTruncation) {
  util::Rng rng(13);
  const auto p =
      net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kSyn, 200).with_payload("payload here");
  const auto frame = net::serialize(p);
  for (std::size_t keep = 0; keep <= frame.size(); ++keep) {
    (void)net::parse(std::span{frame.data(), keep});  // must not crash
  }
  // Random corruption must not crash either.
  for (int i = 0; i < 300; ++i) {
    auto f = frame;
    f[rng.uniform(f.size())] = static_cast<std::byte>(rng());
    (void)net::parse(f);
  }
}

TEST(DnsProperty, DecodeNeverCrashesOnRandomBytes) {
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> junk(rng.uniform(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng());
    (void)net::dns_decode(junk);  // must not crash
  }
}

// --- instrumented runs vs stream executor -----------------------------------

class InstrumentedMonotone : public ::testing::TestWithParam<int> {};

TEST_P(InstrumentedMonotone, NAfterIsNonIncreasing) {
  queries::Thresholds th;
  const auto catalog = queries::full_catalog(th, util::seconds(3));
  trace::BackgroundConfig bg;
  bg.duration_sec = 3.0;
  bg.flows_per_sec = 250.0;
  const auto trace =
      trace::TraceBuilder(static_cast<std::uint64_t>(GetParam())).background(bg).build();
  std::vector<Tuple> tuples;
  for (const auto& p : trace) tuples.push_back(query::materialize_tuple(p));

  for (const auto& q : catalog) {
    for (const auto* src : q.sources()) {
      const auto res = planner::run_instrumented(*src, tuples, nullptr);
      const std::size_t max_p = pisa::max_switch_prefix(*src);
      for (std::size_t k = 1; k <= max_p; ++k) {
        EXPECT_LE(res.n_after[k], res.n_after[k - 1]) << q.name() << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstrumentedMonotone, ::testing::Values(1, 2, 3));

// --- layout constraint enforcement -------------------------------------------

class LayoutProperty : public ::testing::TestWithParam<int> {
 protected:
  // A random switch and a random program list drawn from `rng`.
  static pisa::SwitchConfig random_switch(util::Rng& rng) {
    pisa::SwitchConfig cfg;
    cfg.stages = static_cast<int>(rng.uniform(2, 12));
    cfg.stateful_actions_per_stage = static_cast<int>(rng.uniform(1, 4));
    cfg.register_bits_per_stage = rng.uniform(10'000, 200'000);
    cfg.max_bits_per_register = cfg.register_bits_per_stage;
    cfg.metadata_bits = rng.uniform(500, 4000);
    return cfg;
  }
  static std::vector<pisa::ProgramResources> random_programs(util::Rng& rng, int max_programs) {
    std::vector<pisa::ProgramResources> programs;
    const int n_programs = static_cast<int>(rng.uniform(1, max_programs));
    for (int pi = 0; pi < n_programs; ++pi) {
      pisa::ProgramResources res;
      res.qid = static_cast<query::QueryId>(pi);
      res.metadata_bits = static_cast<int>(rng.uniform(50, 400));
      const int tables = static_cast<int>(rng.uniform(1, 6));
      for (int t = 0; t < tables; ++t) {
        pisa::TableSpec spec;
        spec.name = "q" + std::to_string(pi) + "/t" + std::to_string(t);
        spec.stateful = rng.bernoulli(0.4);
        spec.register_bits = spec.stateful ? rng.uniform(1'000, 80'000) : 0;
        res.tables.push_back(spec);
      }
      programs.push_back(std::move(res));
    }
    return programs;
  }
};

TEST_P(LayoutProperty, FeasibleLayoutsRespectAllCaps) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const pisa::SwitchConfig cfg = random_switch(rng);
  const std::vector<pisa::ProgramResources> programs = random_programs(rng, 6);

  const auto layout = pisa::assign_stages(cfg, programs);
  if (!layout.feasible) return;  // infeasibility is legitimate

  // Check every constraint by recomputing usage from the assignment.
  std::vector<int> stateful(static_cast<std::size_t>(cfg.stages), 0);
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(cfg.stages), 0);
  int metadata = 0;
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    metadata += programs[pi].metadata_bits;
    int prev = -1;
    for (std::size_t t = 0; t < programs[pi].tables.size(); ++t) {
      const int s = layout.table_stages[pi][t];
      ASSERT_GE(s, 0);
      ASSERT_LT(s, cfg.stages);              // C3
      EXPECT_GT(s, prev);                    // C4: strict order within a program
      prev = s;
      const auto& spec = programs[pi].tables[t];
      if (spec.stateful) ++stateful[static_cast<std::size_t>(s)];
      bits[static_cast<std::size_t>(s)] += spec.register_bits;
      EXPECT_LE(spec.register_bits, cfg.max_bits_per_register);
    }
  }
  for (int s = 0; s < cfg.stages; ++s) {
    EXPECT_LE(stateful[static_cast<std::size_t>(s)], cfg.stateful_actions_per_stage);  // C2
    EXPECT_LE(bits[static_cast<std::size_t>(s)], cfg.register_bits_per_stage);         // C1
  }
  EXPECT_LE(static_cast<std::uint64_t>(metadata), cfg.metadata_bits);                  // C5
}

TEST_P(LayoutProperty, PlaceOnPrefixFillMatchesFullLayout) {
  // The planner probes a candidate program with place() on the stage fill
  // of the programs already laid out; that must agree with laying out the
  // whole list again, on every prefix.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const pisa::SwitchConfig cfg = random_switch(rng);
  const std::vector<pisa::ProgramResources> programs = random_programs(rng, 10);

  pisa::StageFill fill(cfg);
  bool prefix_fits = true;
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const std::vector<pisa::ProgramResources> with(programs.begin(),
                                                   programs.begin() + static_cast<long>(k) + 1);
    const pisa::Layout full = pisa::assign_stages(cfg, with);
    pisa::StageFill probe = fill;
    const bool fits = prefix_fits && pisa::place(cfg, probe, programs[k]);
    ASSERT_EQ(fits, full.feasible) << "prefix " << k << ": " << full.error;
    if (fits) {
      EXPECT_EQ(probe.metadata_bits, full.metadata_bits_used) << "prefix " << k;
      ASSERT_EQ(probe.stages.size(), full.stages.size());
      for (std::size_t st = 0; st < probe.stages.size(); ++st) {
        EXPECT_EQ(probe.stages[st].stateful, full.stages[st].stateful) << k << "/" << st;
        EXPECT_EQ(probe.stages[st].stateless_actions, full.stages[st].stateless_actions)
            << k << "/" << st;
        EXPECT_EQ(probe.stages[st].register_bits, full.stages[st].register_bits)
            << k << "/" << st;
      }
    }
    prefix_fits = prefix_fits && pisa::place(cfg, fill, programs[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutProperty, ::testing::Range(1, 25));

// --- stream executor window isolation -----------------------------------------

TEST(StreamProperty, TwoWindowsEqualTwoFreshExecutors) {
  queries::Thresholds th;
  th.superspreader = 10;
  const auto q = queries::make_superspreader(th, util::seconds(3));

  trace::BackgroundConfig bg;
  bg.duration_sec = 6.0;
  bg.flows_per_sec = 200.0;
  const auto trace = trace::TraceBuilder(23).background(bg).build();
  const auto windows = trace::split_windows(trace, util::seconds(3));
  ASSERT_GE(windows.size(), 2u);

  stream::QueryExecutor persistent(q);
  for (std::size_t w = 0; w < 2; ++w) {
    stream::QueryExecutor fresh(q);
    for (const auto& p : windows[w]) {
      persistent.ingest_packet(p);
      fresh.ingest_packet(p);
    }
    auto a = persistent.end_window();
    auto b = fresh.end_window();
    auto key = [](const Tuple& t) { return t.at(0).as_uint(); };
    std::multiset<std::uint64_t> sa, sb;
    for (const auto& t : a) sa.insert(key(t));
    for (const auto& t : b) sb.insert(key(t));
    EXPECT_EQ(sa, sb) << "window " << w;
  }
}

// --- refinement conservativeness ----------------------------------------------

class RefinementConservative : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefinementConservative, WinnersCoverEverySatisfyingKey) {
  // For every training window and coarse level, the winner set must contain
  // the coarsened prefix of every key the original query reports.
  trace::BackgroundConfig bg;
  bg.duration_sec = 9.0;
  bg.flows_per_sec = 250.0;
  trace::TraceBuilder builder(GetParam());
  builder.background(bg);
  trace::SynFloodConfig flood;
  flood.victim = util::ipv4(99, 1, 2, 3);
  flood.start_sec = 1.0;
  flood.duration_sec = 7.0;
  flood.pps = 900;
  builder.add(flood);
  trace::DdosConfig ddos;
  ddos.victim = util::ipv4(55, 5, 5, 5);
  ddos.start_sec = 1.0;
  ddos.duration_sec = 7.0;
  ddos.distinct_sources = 1500;
  ddos.pps = 900;
  builder.add(ddos);
  const auto trace = builder.build();
  const auto windows = planner::materialize_windows(trace, util::seconds(3));

  queries::Thresholds th;
  th.newly_opened = 500;
  th.ddos = 400;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));
  qs.push_back(queries::make_ddos(th, util::seconds(3)));

  for (const auto& q : qs) {
    planner::CostEstimator est(q, windows, {8, 16, 24}, {});
    ASSERT_TRUE(est.refinable()) << q.name();
    // Reference satisfying keys per window.
    for (std::size_t w = 0; w < windows.size(); ++w) {
      stream::QueryExecutor exec(q);
      for (const auto& t : windows[w]) exec.ingest_source_tuple(t);
      const auto outputs = exec.end_window();
      for (const int level : {8, 16, 24}) {
        const auto& winners = est.winners(level, w);
        std::set<std::uint64_t> winner_set;
        for (const auto& t : winners) winner_set.insert(t.at(0).as_uint());
        for (const auto& out : outputs) {
          const auto prefix =
              util::ipv4_prefix(static_cast<std::uint32_t>(out.at(0).as_uint()), level);
          EXPECT_TRUE(winner_set.contains(prefix))
              << q.name() << " window " << w << " level " << level;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementConservative, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace sonata
