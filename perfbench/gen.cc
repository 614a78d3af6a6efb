// perfbench_gen: the benchmark's traffic generator, run as its own process.
//
// Writes a seeded trace as a classic pcap file and, next to it, the ground
// truth the scorer needs: every injected attack host with the catalog query
// that should report it and the seconds during which it is active. The
// engine process only ever sees the pcap, never the seed.
//
//   perfbench_gen --seed N --windows W --out PREFIX
//
// writes PREFIX.pcap and PREFIX.truth.json.
//
// The traffic is border-link background plus the seven layer-3/4 attacks
// of the evaluation workload (bench/common.cc make_eval_workload). Instead
// of one 20 s attack interval, every attack is re-injected in each 3 s
// window, so any number of windows is fully covered and every window holds
// the same attack mix. kRate scales the packet-heavy sources (background
// flows, the three SYN floods, the DDoS and the incomplete flows); the
// low-rate attacks keep the evaluation rates. At 0.5 every attack still
// clears its catalog threshold about 1.5x or more per window.
// Packets past the last window (flow tails) are cut, so every window is
// whole.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/pcap.h"
#include "trace/trace.h"
#include "util/ip.h"

using namespace sonata;
using util::ipv4;

namespace {

constexpr double kWindowSec = 3.0;
// Share of the evaluation rate kept by the packet-heavy sources.
constexpr double kRate = 0.5;

struct Truth {
  int qid;
  const char* query;
  std::uint32_t host;
};

struct Args {
  std::uint64_t seed = 1;
  int windows = 10;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--windows") {
      a.windows = std::atoi(v);
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.out.empty() && a.windows > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --seed N --windows W --out PREFIX\n");
    return 2;
  }

  const std::uint32_t syn_victim = ipv4(99, 1, 0, 25);
  const std::uint32_t syn_victim2 = ipv4(142, 8, 0, 6);
  const std::uint32_t syn_victim3 = ipv4(27, 9, 0, 8);
  const std::uint32_t ssh_victim = ipv4(77, 2, 0, 10);
  const std::uint32_t spreader = ipv4(55, 3, 0, 7);
  const std::uint32_t scanner = ipv4(44, 4, 0, 3);
  const std::uint32_t ddos_victim = ipv4(66, 5, 0, 9);
  const std::uint32_t incomplete_victim = ipv4(88, 6, 0, 2);
  const std::uint32_t slowloris_victim = ipv4(33, 7, 0, 4);

  const double duration = kWindowSec * args.windows;
  trace::BackgroundConfig bg;
  bg.duration_sec = duration;
  bg.flows_per_sec = 1200.0 * kRate;
  bg.client_pool = 15000;
  bg.server_pool = 3000;

  trace::TraceBuilder builder(args.seed);
  builder.background(bg);

  for (int w = 0; w < args.windows; ++w) {
    const double start = kWindowSec * w;
    trace::SynFloodConfig flood;
    flood.victim = syn_victim;
    flood.start_sec = start;
    flood.duration_sec = kWindowSec;
    flood.pps = 3000 * kRate;
    builder.add(flood);
    flood.victim = syn_victim2;
    flood.pps = 1400 * kRate;
    builder.add(flood);
    flood.victim = syn_victim3;
    flood.pps = 1000 * kRate;
    builder.add(flood);

    trace::SshBruteForceConfig ssh;
    ssh.victim = ssh_victim;
    ssh.start_sec = start;
    ssh.duration_sec = kWindowSec;
    ssh.attempts_per_sec = 150;
    ssh.source_count = 2000;
    builder.add(ssh);

    trace::SuperspreaderConfig spread;  // 300 new destinations per second
    spread.spreader = spreader;
    spread.start_sec = start;
    spread.duration_sec = kWindowSec;
    spread.distinct_destinations = 900;
    builder.add(spread);

    trace::PortScanConfig scan;  // ~205 ports per second
    scan.scanner = scanner;
    scan.target = ipv4(201, 10, 0, 1);
    scan.start_sec = start;
    scan.duration_sec = kWindowSec;
    scan.first_port = 1;
    scan.last_port = 615;
    builder.add(scan);

    trace::DdosConfig ddos;
    ddos.victim = ddos_victim;
    ddos.start_sec = start;
    ddos.duration_sec = kWindowSec;
    ddos.distinct_sources = 8000;
    ddos.pps = 4000 * kRate;
    builder.add(ddos);

    trace::IncompleteFlowsConfig inc;
    inc.attacker = ipv4(202, 11, 0, 1);
    inc.victim = incomplete_victim;
    inc.start_sec = start;
    inc.duration_sec = kWindowSec;
    inc.conns_per_sec = 600 * kRate;
    builder.add(inc);
    // The SYN-flood victim answers a trickle of handshakes (as in the
    // evaluation workload).
    inc.attacker = ipv4(204, 13, 0, 1);
    inc.victim = syn_victim;
    inc.conns_per_sec = 40;
    builder.add(inc);

    trace::SlowlorisConfig slow;  // 1620 connections opened per window
    slow.victim = slowloris_victim;
    slow.start_sec = start;
    slow.duration_sec = kWindowSec;
    slow.attacker_count = 6;
    slow.conns_per_attacker = 270;
    builder.add(slow);
  }

  std::vector<net::Packet> trace = builder.build();
  const util::Nanos end = util::seconds(duration);
  while (!trace.empty() && trace.back().ts >= end) trace.pop_back();
  {
    net::PcapWriter writer(args.out + ".pcap");
    for (const auto& p : trace) writer.write(p);
  }

  // Catalog query id -> the host its output key column should carry.
  const Truth truth[] = {
      {1, "newly_opened_tcp", syn_victim}, {1, "newly_opened_tcp", syn_victim2},
      {1, "newly_opened_tcp", syn_victim3}, {2, "ssh_brute_force", ssh_victim},
      {3, "superspreader", spreader},       {4, "port_scan", scanner},
      {5, "ddos", ddos_victim},             {8, "slowloris", slowloris_victim},
  };
  const std::string truth_path = args.out + ".truth.json";
  std::FILE* f = std::fopen(truth_path.c_str(), "w");
  if (f == nullptr) {
    std::perror(truth_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"packets\": %zu, \"window_s\": %.1f, \"windows\": %d, \"attacks\": [",
               trace.size(), kWindowSec, args.windows);
  for (std::size_t i = 0; i < std::size(truth); ++i) {
    std::fprintf(f, "%s{\"qid\": %d, \"query\": \"%s\", \"host\": %u, \"start_s\": 0.0, "
                    "\"end_s\": %.1f}",
                 i == 0 ? "" : ", ", truth[i].qid, truth[i].query, truth[i].host, duration);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("%zu packets over %d windows -> %s.pcap\n", trace.size(), args.windows,
              args.out.c_str());
  return 0;
}
