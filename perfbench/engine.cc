// perfbench_engine: replays a pcap trace through the full query catalog in
// one deployment and prints what it measured as one JSON line on stdout.
//
//   perfbench_engine --workload NAME --catalog FILE --trace PCAP
//                    --training PCAP --seconds S --traced 0|1
//                    [--shm-dir DIR]
//
// Workloads (METRICS.md says why each exists):
//   sonata_catalog  Sonata plan, one switch, serial Runtime
//   maxdp_fleet     max-DP plan, Fleet of 4 switches on 3 worker threads
//   maxdp_shm       max-DP plan, Collector + 2 SwitchNodes over shm rings,
//                   as threads of one process
//
// Replay is closed loop: packets go in as fast as the engine takes them.
// Each pass over the trace runs on a freshly built engine, so every pass
// must produce the same windows. The engine never sees the generator's
// seed, and the program's own metrics and tracing stay off.
//
// --traced 0 measures the end-to-end metrics. The measured loop runs in
// kSlices child processes, one after another, each with a share of
// --seconds, and the reference engine every pass is checked against runs
// in one more. --traced 1 additionally
// re-drives the single-switch Runtime path through the public calls of
// each module (query, pisa, stream) and times every call from here, so
// the layer self-times add up to the traced wall; nothing inside src/ is
// instrumented.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/pcap.h"
#include "net/transport/transport.h"
#include "planner/planner.h"
#include "query/field.h"
#include "query/parser.h"
#include "runtime/distributed.h"
#include "runtime/fleet.h"
#include "runtime/plan_install.h"
#include "runtime/runtime.h"
#include "runtime/stream_processor.h"
#include "util/hash.h"
#include "util/log.h"

using namespace sonata;
namespace nt = net::transport;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Same handoff granularity as EngineBuilder's default.
constexpr std::size_t kBatch = 256;
// Runtime::kProcessChunk: pipelines consume a batch in runs of this size.
constexpr std::size_t kChunk = 16;
constexpr std::size_t kFleetSwitches = 4;
constexpr std::size_t kFleetWorkers = 3;
constexpr std::uint16_t kShmNodes = 2;
// Set-ups per run; setup_s and the set-up layer timings are their medians.
constexpr int kSetupReps = 3;
// Child processes the measured loop of an untraced run is split over. A
// process keeps the speed it starts with (its physical pages and cache
// placement), and that speed differs from process to process by more
// than passes within one process do; the median over several processes
// evens it out.
constexpr int kSlices = 16;

enum class Deploy { kSerial, kFleet, kShm };

struct WorkloadDef {
  const char* name;
  planner::PlanMode mode;
  Deploy deploy;
};

constexpr WorkloadDef kWorkloads[] = {
    {"sonata_catalog", planner::PlanMode::kSonata, Deploy::kSerial},
    {"maxdp_fleet", planner::PlanMode::kMaxDP, Deploy::kFleet},
    {"maxdp_shm", planner::PlanMode::kMaxDP, Deploy::kShm},
};

struct Args {
  std::string workload;
  std::string catalog;
  std::string trace;
  std::string training;
  std::string shm_dir = ".";
  double seconds = 10.0;
  bool traced = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- windows ------------------------------------------------------------

using Windows = std::vector<runtime::WindowStats>;

// 64-bit digest of everything a window reports except the modelled
// control latency and the phase clock, which are timing, not results. It
// covers the flags that make a window count as failed (partial, shed or
// late packets).
std::uint64_t digest(const runtime::WindowStats& w) {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { h = util::hash_combine(h, util::hash_u64(v, 0)); };
  for (const std::uint64_t v : {w.packets, w.tuples_to_sp, w.raw_mirror_packets,
                                w.overflow_records, w.contribution_mask,
                                std::uint64_t{w.partial}, w.shed_packets, w.late_packets}) {
    mix(v);
  }
  for (const auto& r : w.results) {
    mix(r.qid);
    mix(r.outputs.size());
    for (const auto& t : r.outputs) mix(t.hash());
  }
  for (const auto& q : w.winners.per_query) {
    mix(q.qid);
    mix(q.keys.size());
    for (const auto& k : q.keys) mix(k.hash());
  }
  return h;
}

std::vector<std::uint64_t> digests(const Windows& ws) {
  std::vector<std::uint64_t> d;
  d.reserve(ws.size());
  for (const auto& w : ws) d.push_back(digest(w));
  return d;
}

std::vector<int> unclean(const Windows& ws) {
  std::vector<int> u;
  u.reserve(ws.size());
  for (const auto& w : ws) u.push_back(w.partial || w.shed_packets != 0 || w.late_packets != 0);
  return u;
}

// Windows of `got` that count as failed operations: missing, different
// from the reference, or not closed whole. A window that matches the
// reference is as whole as the reference's, which `ref_unclean` marks.
std::size_t failed_windows(const std::vector<std::uint64_t>& got,
                           const std::vector<std::uint64_t>& ref,
                           const std::vector<int>& ref_unclean) {
  std::size_t failed = 0;
  for (std::size_t w = 0; w < ref.size(); ++w) {
    if (w >= got.size() || got[w] != ref[w] || ref_unclean[w] != 0) ++failed;
  }
  return failed;
}

// -- child processes ------------------------------------------------------

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_engine: %s\n", msg.c_str());
  std::exit(1);
}

// Runs `body` in a child process and returns what it wrote to its stream.
// The caller must hold no threads. The child dies with its parent, and
// the parent waits for it, so no child outlives the run.
std::string in_child(const std::function<void(std::ostream&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) die("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    std::ostringstream os;
    os << std::setprecision(17);
    body(os);
    const std::string out = os.str();
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) die("read from child failed");
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) die("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) die("child process failed");
  return out;
}

template <typename T>
void put(std::ostream& os, const std::vector<T>& v) {
  os << v.size();
  for (const T& x : v) os << ' ' << x;
  os << '\n';
}

template <typename T>
std::vector<T> get(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  std::vector<T> v(n);
  for (T& x : v) is >> x;
  if (!is) die("malformed child output");
  return v;
}

// -- the run ------------------------------------------------------------

struct Setup {
  std::vector<query::Query> queries;
  planner::Plan plan;
};

struct Trace {
  std::vector<net::Packet> packets;
  std::vector<std::span<const net::Packet>> windows;
};

Trace load_trace(const std::string& path, util::Nanos window) {
  Trace t;
  t.packets = net::PcapReader(path).read_all();
  std::span<const net::Packet> all{t.packets};
  std::size_t begin = 0;
  while (begin < all.size()) {
    const std::uint64_t idx = util::window_index(all[begin].ts, window);
    std::size_t end = begin;
    while (end < all.size() && util::window_index(all[end].ts, window) == idx) ++end;
    t.windows.push_back(all.subspan(begin, end - begin));
    begin = end;
  }
  return t;
}

// A deployment of one plan that can replay the trace once.
class Deployment {
 public:
  virtual ~Deployment() = default;
  // Replay every window; appends close_window() latencies (ms) and the
  // wall time of the ingest calls (s) when the driver exposes them.
  virtual Windows run(const Trace& t, std::vector<double>* close_ms, double* ingest_s) = 0;
};

// Runtime or Fleet behind the TelemetryEngine interface.
class EngineDeployment final : public Deployment {
 public:
  explicit EngineDeployment(std::unique_ptr<runtime::TelemetryEngine> e) : engine_(std::move(e)) {}

  Windows run(const Trace& t, std::vector<double>* close_ms, double* ingest_s) override {
    Windows out;
    out.reserve(t.windows.size());
    for (const auto& win : t.windows) {
      const auto t0 = Clock::now();
      for (const auto& p : win) engine_->ingest(p);
      const auto t1 = Clock::now();
      out.push_back(engine_->close_window());
      const auto t2 = Clock::now();
      if (close_ms) close_ms->push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
      if (ingest_s) *ingest_s += std::chrono::duration<double>(t1 - t0).count();
    }
    return out;
  }

 private:
  std::unique_ptr<runtime::TelemetryEngine> engine_;
};

// Collector + switch nodes over shm rings, as threads of this process.
class ShmDeployment final : public Deployment {
 public:
  struct NodeTotals {
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
  };

  ShmDeployment(const planner::Plan& plan, const std::string& prefix) : prefix_(prefix) {
    cfg_.switches = kFleetSwitches;
    cfg_.nodes = kShmNodes;
    cfg_.batch = kBatch;
    auto spec = nt::parse_endpoint("shm:" + prefix);
    if (!spec) die("shm endpoint: " + spec.error());
    spec_ = *spec;
    auto ep = nt::make_collector_endpoint(spec_, kShmNodes);
    if (!ep) die("collector endpoint: " + ep.error());
    collector_ = std::make_unique<runtime::Collector>(plan, cfg_, std::move(*ep));
    if (const std::string err = collector_->listen(); !err.empty()) die("listen: " + err);
    for (std::uint16_t n = 0; n < kShmNodes; ++n) {
      runtime::DistributedConfig ncfg = cfg_;
      ncfg.node_index = n;
      auto transport = nt::make_switch_transport(spec_, n);
      if (!transport) die("switch transport: " + transport.error());
      nodes_.push_back(std::make_unique<runtime::SwitchNode>(plan, ncfg, std::move(*transport)));
    }
  }

  ~ShmDeployment() override {
    nodes_.clear();
    collector_.reset();
    remove_rings(prefix_);
  }

  static void remove_rings(const std::string& prefix) {
    for (std::uint16_t n = 0; n < kShmNodes; ++n) {
      const std::string p = prefix + ".n" + std::to_string(n);
      ::unlink((p + ".up").c_str());
      ::unlink((p + ".down").c_str());
    }
  }

  // There is no separate close call here: `close_ms` gets the interval
  // between consecutive windows' results at the collector (the first from
  // the start of the pass), the time each window takes through replay,
  // wire and close.
  Windows run(const Trace& t, std::vector<double>* close_ms, double*) override {
    Windows got;
    std::string collector_err;
    std::vector<std::string> node_err(kShmNodes);
    auto last = Clock::now();
    std::thread collector([&] {
      collector_err = collector_->run([&](const runtime::WindowStats& ws) {
        const auto now = Clock::now();
        if (close_ms) close_ms->push_back(std::chrono::duration<double, std::milli>(now - last).count());
        last = now;
        got.push_back(ws);
      });
    });
    std::vector<std::thread> nodes;
    for (std::uint16_t n = 0; n < kShmNodes; ++n) {
      nodes.emplace_back([&, n] { node_err[n] = nodes_[n]->run(t.packets); });
    }
    for (auto& th : nodes) th.join();
    collector.join();
    if (!collector_err.empty()) std::fprintf(stderr, "collector: %s\n", collector_err.c_str());
    for (const auto& e : node_err) {
      if (!e.empty()) std::fprintf(stderr, "switch node: %s\n", e.c_str());
    }
    for (const auto& node : nodes_) {
      const auto& c = node->transport_counters();
      totals_.bytes += c.tx_bytes + c.rx_bytes;
      totals_.frames += c.tx_frames + c.rx_frames;
    }
    return got;
  }

  [[nodiscard]] const NodeTotals& totals() const noexcept { return totals_; }

 private:
  std::string prefix_;
  runtime::DistributedConfig cfg_;
  nt::EndpointSpec spec_;
  std::unique_ptr<runtime::Collector> collector_;
  std::vector<std::unique_ptr<runtime::SwitchNode>> nodes_;
  NodeTotals totals_;
};

// -- traced single-switch replica ----------------------------------------

// Self-time (seconds) per module, accumulated from outside the modules.
struct LayerTimes {
  double query = 0, pisa = 0, stream = 0;
  double extract = 0, pipeline = 0, deliver = 0, poll = 0, close = 0, reset = 0;
  std::uint64_t packets = 0, records = 0, delivered = 0, state_entries = 0, windows = 0;
};

// Runtime's window loop (runtime.cc: ingest -> flush_pending ->
// do_close_window), driven through the public calls it makes, in order:
// query::materialize_tuple_into, pisa::Switch::process_batch,
// StreamProcessor::deliver_batch / deliver_raw_batch, poll_switch,
// close_levels, Switch::reset_all_registers. Each call is timed here.
class TracedReplica {
 public:
  explicit TracedReplica(const planner::Plan& plan) : plan_(plan), sw_(plan.switch_config) {
    auto build = runtime::build_pipelines(plan_, {});
    if (const std::string err = sw_.install(std::move(build.pipelines), build.resources);
        !err.empty()) {
      die("install: " + err);
    }
    sp_ = std::make_unique<runtime::StreamProcessor>(plan_);
    slots_.resize(kBatch);
  }

  Windows run(const Trace& t, LayerTimes& lt) {
    Windows out;
    const bool raw = sp_->wants_raw_mirror();
    for (const auto& win : t.windows) {
      runtime::WindowStats ws;
      ws.packets = win.size();
      for (std::size_t off = 0; off < win.size(); off += kBatch) {
        const std::size_t n = std::min(kBatch, win.size() - off);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) query::materialize_tuple_into(win[off + i], slots_[i]);
        const auto t1 = Clock::now();
        sink_.clear();
        const std::span<query::Tuple> batch{slots_.data(), n};
        for (std::size_t c = 0; c < n; c += kChunk) {
          sw_.process_batch(batch.subspan(c, std::min(kChunk, n - c)), sink_);
        }
        const auto t2 = Clock::now();
        for (const auto& rec : sink_.records()) {
          if (rec.kind == pisa::EmitRecord::Kind::kOverflow) ++ws.overflow_records;
        }
        lt.records += sink_.size();
        lt.delivered += sink_.size() + (raw ? n : 0);
        ws.tuples_to_sp += raw ? n : sink_.packets_with_records();
        if (raw) ws.raw_mirror_packets += n;
        const auto t3 = Clock::now();
        sp_->deliver_batch(sink_.records());
        if (raw) sp_->deliver_raw_batch(batch);
        const auto t4 = Clock::now();
        lt.extract += dur(t0, t1);
        lt.pipeline += dur(t1, t2);
        lt.deliver += dur(t3, t4);
      }
      const auto c0 = Clock::now();
      sp_->poll_switch(sw_);
      const auto c1 = Clock::now();
      lt.state_entries += state_entries();
      const auto c2 = Clock::now();
      pisa::Switch* const switches[] = {&sw_};
      sp_->close_levels(ws, switches);
      const auto c3 = Clock::now();
      sw_.reset_all_registers();
      const auto c4 = Clock::now();
      lt.poll += dur(c0, c1);
      lt.close += dur(c2, c3);
      lt.reset += dur(c3, c4);
      ws.contribution_mask = 1;
      ws.window_index = out.size();
      lt.packets += ws.packets;
      ++lt.windows;
      out.push_back(std::move(ws));
    }
    lt.query = lt.extract;
    lt.pisa = lt.pipeline + lt.poll + lt.reset;
    lt.stream = lt.deliver + lt.close;
    return out;
  }

 private:
  static double dur(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  // Keyed-state entries held by every stream executor at window end.
  std::uint64_t state_entries() {
    std::uint64_t n = 0;
    for (const auto& pq : plan_.queries) {
      for (const int level : pq.chain) n += sp_->executor(pq.base->id(), level).stateful_entries();
    }
    return n;
  }

  const planner::Plan& plan_;
  pisa::Switch sw_;
  std::unique_ptr<runtime::StreamProcessor> sp_;
  std::vector<query::Tuple> slots_;
  pisa::EmitSink sink_;
};

// -- JSON output ----------------------------------------------------------

class Json {
 public:
  void num(const char* key, double v) { field(key) << fmt(v); }
  void integer(const char* key, std::uint64_t v) { field(key) << v; }
  void raw(const char* key, const std::string& v) { field(key) << v; }
  void list(const char* key, const std::vector<double>& v) {
    auto& o = field(key);
    o << '[';
    for (std::size_t i = 0; i < v.size(); ++i) o << (i ? ", " : "") << fmt(v[i]);
    o << ']';
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }
  std::ostringstream& field(const char* key) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << key << "\": ";
    return os_;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// Reported detections as [window, qid, first output column] triples; every
// catalog query keys its output on the host it accuses.
std::string detections_json(const Windows& ws) {
  std::ostringstream o;
  o << '[';
  bool first = true;
  for (const auto& w : ws) {
    for (const auto& r : w.results) {
      for (const auto& t : r.outputs) {
        if (t.size() == 0 || !t.at(0).is_uint()) continue;
        o << (first ? "" : ", ") << '[' << w.window_index << ", " << r.qid << ", "
          << t.at(0).as_uint() << ']';
        first = false;
      }
    }
  }
  o << ']';
  return o.str();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--catalog") a.catalog = v;
    else if (k == "--trace") a.trace = v;
    else if (k == "--training") a.training = v;
    else if (k == "--shm-dir") a.shm_dir = v;
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--traced") a.traced = v == "1";
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && !a.catalog.empty() && !a.trace.empty() &&
         !a.training.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_engine --workload NAME --catalog FILE --trace PCAP "
                 "--training PCAP --seconds S --traced 0|1 [--shm-dir DIR]\n");
    return 2;
  }
  const WorkloadDef* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench_engine: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  util::set_log_level(util::LogLevel::kWarn);

  std::string catalog_text;
  {
    std::ifstream in(args.catalog);
    if (!in) {
      std::fprintf(stderr, "perfbench_engine: cannot read %s\n", args.catalog.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    catalog_text = ss.str();
  }

  planner::PlannerConfig pcfg;
  pcfg.mode = wl->mode;
  pcfg.window = util::seconds(3);
  const Trace trace = load_trace(args.trace, pcfg.window);
  const std::vector<net::Packet> training = net::PcapReader(args.training).read_all();
  std::uint64_t packets = 0;
  for (const auto& w : trace.windows) packets += w.size();

  // -- setup: query text + training packets -> engine ready to ingest ----
  std::vector<double> setup_s, parse_ms, materialize_ms, plan_ms, compile_ms;
  std::unique_ptr<TracedReplica> replica;
  std::uint64_t shm_pass = 0;
  // The shm rings are named after the process that replays, which may be a
  // child of this one.
  auto make_deployment = [&](const planner::Plan& plan) -> std::unique_ptr<Deployment> {
    switch (wl->deploy) {
      case Deploy::kSerial:
        return std::make_unique<EngineDeployment>(std::make_unique<runtime::Runtime>(plan, kBatch));
      case Deploy::kFleet:
        return std::make_unique<EngineDeployment>(
            std::make_unique<runtime::Fleet>(plan, kFleetSwitches, kFleetWorkers, kBatch));
      case Deploy::kShm:
        return std::make_unique<ShmDeployment>(
            plan, args.shm_dir + "/ring." + std::to_string(::getpid()) + "." +
                      std::to_string(shm_pass++));
    }
    return nullptr;
  };
  // One timed set-up. An untraced set-up builds the workload's deployment
  // and tears it down after the clock stops, so this process holds no
  // threads when it forks; a traced one leaves its replica in `rep`.
  auto set_up = [&](std::unique_ptr<TracedReplica>& rep) -> std::unique_ptr<Setup> {
    auto s = std::make_unique<Setup>();
    const auto t0 = Clock::now();
    query::ParseResult parsed = query::parse_queries(catalog_text);
    const auto t1 = Clock::now();
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench_engine: catalog: %s\n",
                   parsed.errors.front().to_string().c_str());
      std::exit(1);
    }
    s->queries = std::move(parsed.queries);
    const auto windows = planner::materialize_windows(training, pcfg.window);
    const auto t2 = Clock::now();
    s->plan = planner::Planner(pcfg).plan_windows(s->queries, windows);
    const auto t3 = Clock::now();
    std::unique_ptr<Deployment> dep;
    if (args.traced) {
      rep = std::make_unique<TracedReplica>(s->plan);
    } else {
      dep = make_deployment(s->plan);
    }
    const auto t4 = Clock::now();
    dep.reset();
    using ms = std::chrono::duration<double, std::milli>;
    parse_ms.push_back(ms(t1 - t0).count());
    materialize_ms.push_back(ms(t2 - t1).count());
    plan_ms.push_back(ms(t3 - t2).count());
    compile_ms.push_back(ms(t4 - t3).count());
    setup_s.push_back(std::chrono::duration<double>(t4 - t0).count());
    return s;
  };
  const std::unique_ptr<Setup> setup = set_up(replica);
  const planner::Plan& plan = setup->plan;

  std::uint64_t attempted = 0, failed = 0;
  Json out;

  // Windows every deployment of this plan must reproduce: the serial
  // workloads a Runtime of the same plan; the fleet a serial Fleet; shm an
  // in-process Fleet with the same parallelism (4 shards, 2 workers).
  auto check = [&](const Windows& got, const Windows& ref) {
    attempted += ref.size();
    failed += failed_windows(digests(got), digests(ref), unclean(ref));
  };
  auto run_reference = [&]() {
    std::unique_ptr<runtime::TelemetryEngine> e;
    if (wl->deploy == Deploy::kSerial) {
      e = std::make_unique<runtime::Runtime>(plan, kBatch);
    } else if (wl->deploy == Deploy::kFleet) {
      e = std::make_unique<runtime::Fleet>(plan, kFleetSwitches, 0, kBatch);
    } else {
      e = std::make_unique<runtime::Fleet>(plan, kFleetSwitches, kShmNodes, kBatch);
    }
    EngineDeployment d(std::move(e));
    const auto t0 = Clock::now();
    Windows w = d.run(trace, nullptr, nullptr);
    return std::make_pair(std::move(w), secs_since(t0));
  };

  // Passes of the workload's own deployment while another pass as long as
  // the last one still fits in `budget` seconds; at least one. Their
  // windows are kept and checked after the loop, so no reference engine
  // lives while the workload runs.
  struct Slice {
    std::vector<double> pass_wall, close_ms;
    double ingest_s = 0;
    std::uint64_t wire_bytes = 0, wire_frames = 0;
    std::vector<Windows> passes;
  };
  auto measure = [&](double budget) {
    Slice s;
    const auto start = Clock::now();
    do {
      std::unique_ptr<Deployment> d = make_deployment(plan);
      const auto t0 = Clock::now();
      Windows w = d->run(trace, &s.close_ms, &s.ingest_s);
      s.pass_wall.push_back(secs_since(t0));
      if (auto* shm = dynamic_cast<ShmDeployment*>(d.get())) {
        s.wire_bytes += shm->totals().bytes;
        s.wire_frames += shm->totals().frames;
      }
      s.passes.push_back(std::move(w));
    } while (secs_since(start) + s.pass_wall.back() <= budget);
    return s;
  };

  const std::size_t nwin = trace.windows.size();
  if (!args.traced) {
    // Each slice gets an equal share of the time --seconds has left, so
    // slices that could not fill theirs with whole passes leave it to the
    // next. It reports the peak memory of its process right after its
    // loop: set-up, trace and loop, before the reference engine runs.
    std::vector<double> pass_wall, close_ms, rss_mb;
    std::vector<std::vector<std::uint64_t>> passes;
    const auto loop_start = Clock::now();
    for (int i = 0; i < kSlices; ++i) {
      const double budget = (args.seconds - secs_since(loop_start)) / (kSlices - i);
      std::istringstream in(in_child([&](std::ostream& os) {
        const Slice s = measure(budget);
        struct rusage ru {};
        ::getrusage(RUSAGE_SELF, &ru);
        os << static_cast<double>(ru.ru_maxrss) / 1024.0 << '\n';
        put(os, s.pass_wall);
        put(os, s.close_ms);
        os << s.passes.size() << '\n';
        for (const auto& w : s.passes) put(os, digests(w));
      }));
      double mb = 0;
      std::size_t n = 0;
      in >> mb;
      rss_mb.push_back(mb);
      for (const double v : get<double>(in)) pass_wall.push_back(v);
      for (const double v : get<double>(in)) close_ms.push_back(v);
      in >> n;
      for (std::size_t p = 0; p < n; ++p) passes.push_back(get<std::uint64_t>(in));
    }
    std::istringstream in(in_child([&](std::ostream& os) {
      const Windows ref = run_reference().first;
      std::uint64_t tuples = 0;
      for (const auto& w : ref) tuples += w.tuples_to_sp;
      put(os, digests(ref));
      put(os, unclean(ref));
      os << tuples << '\n' << detections_json(ref) << '\n';
    }));
    const std::vector<std::uint64_t> ref = get<std::uint64_t>(in);
    const std::vector<int> ref_unclean = get<int>(in);
    std::uint64_t tuples = 0;
    std::string detections;
    in >> tuples >> std::ws;
    std::getline(in, detections);
    for (const auto& p : passes) {
      attempted += ref.size();
      failed += failed_windows(p, ref, ref_unclean);
    }
    out.num("peak_rss_mb", median(rss_mb));
    out.integer("packets", packets);
    out.integer("windows", nwin);
    out.integer("slices", kSlices);
    out.integer("passes", pass_wall.size());
    out.list("pass_wall_s", pass_wall);
    out.list("close_ms", close_ms);
    out.num("sp_tuples_per_window", static_cast<double>(tuples) / static_cast<double>(nwin));
    out.raw("detections", detections);
  } else {
    // 1. The untraced single-switch Runtime of this plan, then the traced
    //    replica of the same path: overhead and bit-identity.
    const bool serial = wl->deploy == Deploy::kSerial;
    const double share = serial ? 0.5 : 0.25;
    std::vector<double> runtime_wall, traced_wall;
    Windows runtime_ref;
    std::vector<double> rt_close_ms;
    double rt_ingest_s = 0;
    {
      const auto start = Clock::now();
      do {
        EngineDeployment d(std::make_unique<runtime::Runtime>(plan, kBatch));
        const auto t0 = Clock::now();
        Windows w = d.run(trace, &rt_close_ms, &rt_ingest_s);
        runtime_wall.push_back(secs_since(t0));
        if (runtime_ref.empty()) runtime_ref = w;
        check(w, runtime_ref);
      } while (secs_since(start) < share * args.seconds);
    }
    LayerTimes lt;
    std::vector<LayerTimes> per_pass;
    {
      const auto start = Clock::now();
      do {
        if (!replica) replica = std::make_unique<TracedReplica>(plan);
        LayerTimes pass;
        const auto t0 = Clock::now();
        Windows w = replica->run(trace, pass);
        traced_wall.push_back(secs_since(t0));
        replica.reset();
        per_pass.push_back(pass);
        check(w, runtime_ref);
      } while (secs_since(start) < share * args.seconds);
    }
    // The median pass's layer times, so each layer and the wall it is
    // compared against come from the same pass.
    std::size_t mid = 0;
    {
      std::vector<std::size_t> order(traced_wall.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return traced_wall[a] < traced_wall[b]; });
      mid = order[order.size() / 2];
      lt = per_pass[mid];
    }
    std::uint64_t tuples = 0;
    for (const auto& w : runtime_ref) tuples += w.tuples_to_sp;

    // 2. The workload's own deployment, when it is not the Runtime.
    double speedup = 0, wire_ms = 0;
    Slice own;
    if (!serial) {
      own = measure(0.5 * args.seconds);
      auto [reference, reference_wall] = run_reference();
      for (const auto& w : own.passes) check(w, reference);
      if (wl->deploy == Deploy::kFleet) {
        speedup = reference_wall / median(own.pass_wall);
      } else {
        // Wire cost: the shm deployment against the in-process Fleet with
        // the same parallelism, re-measured alongside for a fair median.
        std::vector<double> fleet_wall = {reference_wall};
        for (std::size_t i = 1; i < own.pass_wall.size(); ++i) {
          fleet_wall.push_back(run_reference().second);
        }
        wire_ms = 1e3 * (median(own.pass_wall) - median(fleet_wall)) / static_cast<double>(nwin);
      }
    }

    const double wall = traced_wall[mid];
    const double pkts = static_cast<double>(lt.packets);
    const double wins = static_cast<double>(lt.windows);
    out.integer("packets", packets);
    out.integer("windows", nwin);
    out.num("traced_wall_s", wall);
    out.num("untraced_wall_s", median(runtime_wall));
    out.num("layer.query_s", lt.query);
    out.num("layer.pisa_s", lt.pisa);
    out.num("layer.stream_s", lt.stream);
    out.num("planner.est_ratio", plan.est_total_tuples == 0
                                     ? 0.0
                                     : static_cast<double>(tuples) / static_cast<double>(nwin) /
                                           static_cast<double>(plan.est_total_tuples));
    out.num("query.extract_ns_per_pkt", 1e9 * lt.extract / pkts);
    out.num("pisa.pipeline_ns_per_pkt", 1e9 * lt.pipeline / pkts);
    out.num("pisa.records_per_pkt", static_cast<double>(lt.records) / pkts);
    out.num("pisa.poll_ms_per_window", 1e3 * lt.poll / wins);
    out.num("stream.deliver_ns_per_tuple",
            lt.delivered == 0 ? 0.0 : 1e9 * lt.deliver / static_cast<double>(lt.delivered));
    out.num("stream.close_ms_per_window", 1e3 * lt.close / wins);
    out.num("state.entries_per_window", static_cast<double>(lt.state_entries) / wins);
    if (serial) {
      out.num("runtime.ingest_ns_per_pkt",
              1e9 * rt_ingest_s / (static_cast<double>(packets) * runtime_wall.size()));
      out.num("runtime.close_ms_per_window", median(rt_close_ms));
      out.num("runtime.parallel_speedup", 0.0);
    } else if (wl->deploy == Deploy::kFleet) {
      out.num("runtime.ingest_ns_per_pkt",
              1e9 * own.ingest_s / (static_cast<double>(packets) * own.pass_wall.size()));
      out.num("runtime.close_ms_per_window", median(own.close_ms));
      out.num("runtime.parallel_speedup", speedup);
    } else {
      out.num("runtime.ingest_ns_per_pkt", 0.0);
      out.num("runtime.close_ms_per_window", 0.0);
      out.num("runtime.parallel_speedup", 0.0);
    }
    const double passes = static_cast<double>(std::max<std::size_t>(own.pass_wall.size(), 1));
    out.num("net.wire_bytes_per_window",
            static_cast<double>(own.wire_bytes) / passes / static_cast<double>(nwin));
    out.num("net.frames_per_window",
            static_cast<double>(own.wire_frames) / passes / static_cast<double>(nwin));
    out.num("net.wire_ms_per_window", wire_ms);
  }

  // The other set-ups run after the measured loops, so each loop follows
  // exactly one set-up, as in a deployment.
  for (int rep = 1; rep < kSetupReps; ++rep) {
    std::unique_ptr<TracedReplica> rep_replica;
    const std::unique_ptr<Setup> s = set_up(rep_replica);
    rep_replica.reset();  // engines reference the set-up's plan and queries
  }
  if (args.traced) {
    out.num("query.parse_ms", median(parse_ms));
    out.num("planner.materialize_ms", median(materialize_ms));
    out.num("planner.plan_ms", median(plan_ms));
    out.num("pisa.compile_ms", median(compile_ms));
  } else {
    out.list("setup_s", setup_s);
  }
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.integer("est_total_tuples", plan.est_total_tuples);
  out.raw("hardware", bench::hardware_json());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
