// Window-phase tracing (DESIGN.md "Observability").
//
// Two cooperating pieces:
//   * TraceRecorder — a process-global buffer of completed spans,
//     exportable as Chrome trace-event JSON (load the file in Perfetto or
//     chrome://tracing). Appends take a mutex, which is fine at the
//     recorded granularity: spans are per batch or per window phase, never
//     per packet.
//   * PhaseAccum / PhaseTimer — the drivers' per-window phase clock.
//     Every timed interval is attributed to one Phase; a PhaseAccum is
//     single-writer (one per shard worker, one per driver) and its nanos
//     feed WindowStats::phases at window close. total_nanos() is
//     accumulated alongside the per-phase cells, so the breakdown always
//     sums to the total exactly.
//
// Both are disabled by default. PhaseTimer reads the clock only when
// metrics (obs::enabled) or tracing is on; a disabled timer is two
// predictable branches.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sonata::obs {

// Monotonic nanoseconds since process start (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

class TraceRecorder {
 public:
  static TraceRecorder& global();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Record a completed span. `name` and `cat` must be string literals (the
  // recorder stores the pointers). Once the event cap is reached further
  // spans are counted as dropped instead of growing the buffer, so a long
  // soak cannot run the process out of memory.
  void record(const char* name, const char* cat, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  // Cap on retained events (default kDefaultMaxEvents). 0 means unlimited.
  // Also mirrors drops to sonata_trace_events_dropped_total when metrics
  // are enabled.
  void set_max_events(std::size_t cap);
  [[nodiscard]] std::size_t max_events() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kDefaultMaxEvents = 262144;  // ~7 MB of spans

  [[nodiscard]] std::size_t size() const;
  void clear();

  // Chrome trace-event JSON: an object with a traceEvents array of
  // complete ("ph":"X") events, timestamps in microseconds.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint32_t tid;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::vector<Event> events_;
};

// The window phases every driver accounts for (ISSUE: ingest/parse,
// pipeline compute, merge barrier, register poll, close/refinement).
enum class Phase : int { kIngest = 0, kCompute, kMerge, kPoll, kClose };
inline constexpr int kPhaseCount = 5;
[[nodiscard]] const char* phase_name(Phase p) noexcept;

// Single-writer per-window phase clock totals, in nanoseconds.
class PhaseAccum {
 public:
  void add(Phase p, std::uint64_t ns) noexcept {
    ns_[static_cast<int>(p)] += ns;
    total_ += ns;
  }
  [[nodiscard]] std::uint64_t nanos(Phase p) const noexcept {
    return ns_[static_cast<int>(p)];
  }
  [[nodiscard]] std::uint64_t total_nanos() const noexcept { return total_; }
  void merge(const PhaseAccum& other) noexcept {
    for (int i = 0; i < kPhaseCount; ++i) ns_[i] += other.ns_[i];
    total_ += other.total_;
  }
  void reset() noexcept {
    for (std::uint64_t& n : ns_) n = 0;
    total_ = 0;
  }

 private:
  std::uint64_t ns_[kPhaseCount] = {};
  std::uint64_t total_ = 0;
};

// RAII span: records `name` from construction to destruction (or stop())
// when tracing was on at construction (no clock read otherwise). `name` and
// `cat` must be string literals, as for TraceRecorder::record.
class Span {
 public:
  Span(const char* name, const char* cat) noexcept : name_(name), cat_(cat) {
    if (TraceRecorder::global().enabled()) start_ = now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  void stop() {
    if (start_ == 0) return;
    TraceRecorder::global().record(name_, cat_, start_, now_ns() - start_);
    start_ = 0;
  }

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_ = 0;  // 0 = inactive
};

// RAII interval: on destruction (or stop()) adds the elapsed time to the
// accumulator and, when tracing is on, records a span named after the
// phase. Inactive (no clock read) unless metrics or tracing is enabled.
class PhaseTimer {
 public:
  PhaseTimer(PhaseAccum& accum, Phase phase) : accum_(&accum), phase_(phase) {
    if (enabled() || TraceRecorder::global().enabled()) start_ = now_ns();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { stop(); }

  void stop() noexcept;

 private:
  PhaseAccum* accum_;
  Phase phase_;
  std::uint64_t start_ = 0;  // 0 = inactive
};

}  // namespace sonata::obs
