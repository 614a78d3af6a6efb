#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace sonata::obs {

namespace {

std::atomic<bool> g_enabled{false};

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

// Split "name{labels}" into ("name", "labels") for the Prometheus
// exposition, where histogram series need an extra `le` label merged in.
std::pair<std::string_view, std::string_view> split_labels(std::string_view full) {
  const auto brace = full.find('{');
  if (brace == std::string_view::npos) return {full, {}};
  std::string_view labels = full.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
  return {full.substr(0, brace), labels};
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

std::string labeled(std::string_view name,
                    std::span<const std::pair<std::string_view, std::string>> labels) {
  std::string out{name};
  if (labels.empty()) return out;
  out.push_back('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    // Prometheus label-value escaping: backslash, double quote, newline.
    // The identity string is embedded verbatim by the exposition exporter,
    // so it must already be escape-correct.
    for (const char c : labels[i].second) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out.push_back(c);
      }
    }
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::zero() noexcept {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bucket_counts()) total += b;
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

void Histogram::zero() noexcept {
  for (Shard& s : shards_) {
    for (std::size_t b = 0; b < bounds_.size() + 1; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  // Heterogeneous find first: the steady-state resolve path allocates no
  // key string. The emplace on miss is the one place the name materializes.
  if (const auto it = counters_.find(name); it != counters_.end()) return *it->second;
  auto [it, inserted] =
      counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter()));
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  if (const auto it = gauges_.find(name); it != gauges_.end()) return *it->second;
  auto [it, inserted] = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()));
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::span<const std::uint64_t> bounds) {
  std::lock_guard lk(mu_);
  if (const auto it = histograms_.find(name); it != histograms_.end()) return *it->second;
  auto [it, inserted] = histograms_.emplace(std::string(name),
                                            std::unique_ptr<Histogram>(new Histogram(bounds)));
  return *it->second;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lk(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  // The backing maps are unordered; sort so exporter output (and any diff
  // of two snapshots) is deterministic, as it was under std::map.
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset_values() {
  std::lock_guard lk(mu_);
  for (auto& [name, c] : counters_) c->zero();
  for (auto& [name, g] : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) h->zero();
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    append_json_escaped(out, c.name);
    out += "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    append_json_escaped(out, g.name);
    out += "\": " + std::to_string(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    append_json_escaped(out, h.name);
    out += "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// HELP text for the well-known metric families; families added by future
// instrument sites fall back to a generic line rather than omitting HELP
// (the exposition format expects HELP to precede TYPE for each family).
std::string_view help_for(std::string_view base) {
  struct Entry {
    std::string_view base, help;
  };
  static constexpr Entry kHelp[] = {
      {"sonata_windows_total", "Windows closed by the engine."},
      {"sonata_windows_partial_total", "Windows closed with quarantined shards missing."},
      {"sonata_window_phase_nanos_total", "Per-window wall time by processing phase."},
      {"sonata_pisa_packets_total", "Packets processed by the switch data plane."},
      {"sonata_pisa_emit_records_total", "Emit records produced by switch pipelines."},
      {"sonata_sp_tuples_in_total", "Tuples entering a stream-processor level."},
      {"sonata_sp_tuples_out_total", "Tuples a stream-processor level passed downstream."},
      {"sonata_runtime_replans_total", "Auto-replans installed at window barriers."},
      {"sonata_plan_search_nodes", "Branch-and-bound nodes the last joint plan search visited."},
      {"sonata_admission_accepted_total", "Control-plane submissions admitted."},
      {"sonata_admission_rejected_total", "Control-plane submissions rejected."},
      {"sonata_admission_withdrawn_total", "Control-plane withdrawals applied."},
      {"sonata_trace_events_dropped_total",
       "Trace events discarded after the recorder hit its event cap."},
      {"sonata_report_latency_ns",
       "End-to-end report latency from packet ingest to stream-processor delivery."},
  };
  for (const Entry& e : kHelp) {
    if (e.base == base) return e.help;
  }
  return "Sonata telemetry metric.";
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  // The exposition format allows one HELP/TYPE pair per metric family, not
  // per series; labeled series of one family share a single header.
  std::set<std::string_view> typed;
  const auto type_line = [&](std::string_view base, std::string_view kind) {
    if (!typed.insert(base).second) return;
    out += "# HELP ";
    out += base;
    out.push_back(' ');
    out += help_for(base);
    out.push_back('\n');
    out += "# TYPE ";
    out += base;
    out.push_back(' ');
    out += kind;
    out.push_back('\n');
  };
  for (const auto& c : counters) {
    const auto [base, labels] = split_labels(c.name);
    type_line(base, "counter");
    out += c.name;
    out += ' ';
    out += std::to_string(c.value);
    out.push_back('\n');
  }
  for (const auto& g : gauges) {
    const auto [base, labels] = split_labels(g.name);
    type_line(base, "gauge");
    out += g.name;
    out += ' ';
    out += std::to_string(g.value);
    out.push_back('\n');
  }
  for (const auto& h : histograms) {
    const auto [base, labels] = split_labels(h.name);
    type_line(base, "histogram");
    auto series = [&](std::string_view le, std::uint64_t cumulative) {
      out += base;
      out += "_bucket{";
      if (!labels.empty()) {
        out += labels;
        out.push_back(',');
      }
      out += "le=\"";
      out += le;
      out += "\"} ";
      out += std::to_string(cumulative);
      out.push_back('\n');
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      series(std::to_string(h.bounds[i]), cumulative);
    }
    series("+Inf", h.count);
    auto scalar = [&](std::string_view suffix, std::uint64_t v) {
      out += base;
      out += suffix;
      if (!labels.empty()) {
        out.push_back('{');
        out += labels;
        out.push_back('}');
      }
      out.push_back(' ');
      out += std::to_string(v);
      out.push_back('\n');
    };
    scalar("_sum", h.sum);
    scalar("_count", h.count);
  }
  return out;
}

}  // namespace sonata::obs
