// Shared synthetic scenario for planner/runtime/integration tests: modest
// background traffic plus the attacks the evaluation queries detect, with
// thresholds calibrated so each attack is the unique ground-truth positive.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/packet.h"
#include "queries/catalog.h"
#include "trace/trace.h"
#include "util/ip.h"

namespace sonata::testing {

struct Scenario {
  std::vector<net::Packet> trace;
  queries::Thresholds thresholds;
  std::uint32_t syn_victim = util::ipv4(99, 1, 0, 25);
  std::uint32_t ssh_victim = util::ipv4(77, 2, 0, 10);
  std::uint32_t spreader = util::ipv4(55, 3, 0, 7);
  std::uint32_t scanner = util::ipv4(44, 4, 0, 3);
  std::uint32_t ddos_victim = util::ipv4(66, 5, 0, 9);
  std::uint32_t incomplete_victim = util::ipv4(88, 6, 0, 2);
  std::uint32_t slowloris_victim = util::ipv4(33, 7, 0, 4);
};

// ~12 s of traffic = 4 windows of 3 s; attacks run from t=1 s to t=11 s so
// every window contains steady attack traffic.
inline Scenario make_scenario(std::uint64_t seed = 42, double bg_flows_per_sec = 250.0) {
  Scenario sc;

  trace::BackgroundConfig bg;
  bg.duration_sec = 12.0;
  bg.flows_per_sec = bg_flows_per_sec;
  bg.client_pool = 4000;
  bg.server_pool = 800;

  trace::TraceBuilder builder(seed);
  builder.background(bg);

  trace::SynFloodConfig flood;
  flood.victim = sc.syn_victim;
  flood.start_sec = 1.0;
  flood.duration_sec = 10.0;
  flood.pps = 800;
  builder.add(flood);

  trace::SshBruteForceConfig ssh;
  ssh.victim = sc.ssh_victim;
  ssh.start_sec = 1.0;
  ssh.duration_sec = 10.0;
  ssh.attempts_per_sec = 80;
  builder.add(ssh);

  trace::SuperspreaderConfig spread;
  spread.spreader = sc.spreader;
  spread.start_sec = 1.0;
  spread.duration_sec = 10.0;
  spread.distinct_destinations = 3000;
  builder.add(spread);

  trace::PortScanConfig scan;
  scan.scanner = sc.scanner;
  scan.target = util::ipv4(201, 10, 0, 1);
  scan.start_sec = 1.0;
  scan.duration_sec = 10.0;
  scan.last_port = 2048;
  builder.add(scan);

  trace::DdosConfig ddos;
  ddos.victim = sc.ddos_victim;
  ddos.start_sec = 1.0;
  ddos.duration_sec = 10.0;
  ddos.distinct_sources = 3000;
  ddos.pps = 1200;
  builder.add(ddos);

  trace::IncompleteFlowsConfig inc;
  inc.attacker = util::ipv4(202, 11, 0, 1);
  inc.victim = sc.incomplete_victim;
  inc.start_sec = 1.0;
  inc.duration_sec = 10.0;
  inc.conns_per_sec = 250;
  builder.add(inc);

  trace::SlowlorisConfig slow;
  slow.victim = sc.slowloris_victim;
  slow.start_sec = 1.0;
  slow.duration_sec = 10.0;
  slow.attacker_count = 4;
  slow.conns_per_attacker = 300;
  builder.add(slow);

  sc.trace = builder.build();

  // Thresholds: comfortably above background, comfortably below attacks
  // (per 3 s window).
  sc.thresholds.newly_opened = 600;       // flood ~2400 SYN/window
  sc.thresholds.ssh_brute = 40;           // ~240 same-size attempts/window
  sc.thresholds.superspreader = 250;      // ~900 distinct dsts/window
  sc.thresholds.port_scan = 150;          // ~600 ports/window
  sc.thresholds.ddos = 600;               // ~3000 distinct srcs early window
  sc.thresholds.syn_flood = 500;
  sc.thresholds.incomplete_flows = 300;   // ~750 unfinished conns/window
  // Slowloris: the victim has ~1000 connections over ~200 KB (ratio ~5000);
  // busy legitimate servers have ratios under 100.
  sc.thresholds.slowloris_bytes = 30000;
  sc.thresholds.slowloris_ratio = 1500;
  return sc;
}

// Driver policies (mitigation, re-planning) belong to the one in-process
// driver; their tests run on the single switch and on a threaded fleet.
struct Topology {
  std::size_t switches;
  std::size_t workers;
};
inline constexpr Topology kPolicyTopologies[] = {{1, 0}, {3, 3}};

inline std::string topology_label(const Topology& t) {
  return std::to_string(t.switches) + " switches, " + std::to_string(t.workers) + " workers";
}

}  // namespace sonata::testing
