#include "runtime/engine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "runtime/control_plane.h"
#include "runtime/fleet.h"
#include "util/log.h"
#include "util/time.h"

namespace sonata::runtime {

namespace {

// Registry-side window accounting, shared by every driver. Handles are
// resolved lazily once; the adds are self-gated on obs::enabled.
void publish_window_obs(const WindowStats& w) {
  static obs::Counter& windows = obs::Registry::global().counter("sonata_windows_total");
  static obs::Counter& partial = obs::Registry::global().counter("sonata_windows_partial_total");
  static obs::Counter* phase_nanos[obs::kPhaseCount] = {};
  if (phase_nanos[0] == nullptr) {
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      const std::pair<std::string_view, std::string> labels[] = {
          {"phase", obs::phase_name(static_cast<obs::Phase>(i))}};
      phase_nanos[i] =
          &obs::Registry::global().counter(obs::labeled("sonata_window_phase_nanos_total", labels));
    }
  }
  windows.add(1);
  if (w.partial) partial.add(1);
  phase_nanos[static_cast<int>(obs::Phase::kIngest)]->add(w.phases.ingest_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kCompute)]->add(w.phases.compute_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kMerge)]->add(w.phases.merge_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kPoll)]->add(w.phases.poll_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kClose)]->add(w.phases.close_nanos);
}

planner::AdmissionDiagnostic no_control_plane() {
  planner::AdmissionDiagnostic d;
  d.code = planner::AdmissionDiagnostic::Code::kNoControlPlane;
  d.message =
      "engine was built without a control plane; use EngineBuilder for dynamic "
      "query admission";
  return d;
}

}  // namespace

TelemetryEngine::TelemetryEngine() = default;
TelemetryEngine::~TelemetryEngine() = default;

WindowStats TelemetryEngine::close_window() {
  WindowStats w = do_close_window();
  w.plan_version = plan().version;
  if (control_ != nullptr && control_->dirty()) {
    // Apply pending submissions/withdrawals at the barrier: the plan is a
    // versioned object, and the swap lands between windows so window N is
    // entirely version V and window N+1 entirely V+1.
    planner::Plan next = control_->take_snapshot();
    SONATA_INFO("engine", "control-plane swap after window %llu: %zu queries, plan v%llu",
                static_cast<unsigned long long>(w.window_index), next.queries.size(),
                static_cast<unsigned long long>(next.version));
    apply_plan(std::move(next));
    control_->free_retired();
    w.plan_swapped = true;
    obs::Journal::global().emit(obs::EventType::kPlanSwap, w.window_index, 0, 0,
                                static_cast<std::int64_t>(plan().version),
                                static_cast<std::int64_t>(plan().queries.size()), 0,
                                "control-plane swap");
  }
  return w;
}

util::Expected<QueryHandle, planner::AdmissionDiagnostic> TelemetryEngine::submit(
    query::Query q, std::string_view tenant) {
  if (control_ == nullptr) return no_control_plane();
  return control_->submit(std::move(q), tenant);
}

util::Expected<util::Ok, planner::AdmissionDiagnostic> TelemetryEngine::withdraw(QueryHandle h) {
  if (control_ == nullptr) return no_control_plane();
  return control_->withdraw(h);
}

WindowStats TelemetryEngine::process_window(std::span<const net::Packet> packets) {
  const bool tracing = obs::TraceRecorder::global().enabled();
  const std::uint64_t start = tracing ? obs::now_ns() : 0;
  for (const auto& p : packets) ingest(p);
  WindowStats w = close_window();
  if (tracing) {
    obs::TraceRecorder::global().record("window", "window", start, obs::now_ns() - start);
  }
  std::size_t detections_for_journal = 0;
  for (const auto& r : w.results) detections_for_journal += r.outputs.size();
  if (obs::enabled()) {
    publish_window_obs(w);
    obs::Journal& journal = obs::Journal::global();
    journal.emit(obs::EventType::kWindowSummary, w.window_index, 0, 0,
                 static_cast<std::int64_t>(w.packets),
                 static_cast<std::int64_t>(w.tuples_to_sp),
                 static_cast<std::int64_t>(detections_for_journal),
                 w.partial ? "partial" : "");
    if (w.faults.total() > 0) {
      journal.emit(obs::EventType::kFaultBurst, w.window_index, 0, 0,
                   static_cast<std::int64_t>(w.faults.total()),
                   static_cast<std::int64_t>(w.late_packets),
                   static_cast<std::int64_t>(w.shed_packets));
    }
    // Keep the crash flight recorder's metrics page current: one snapshot
    // serialization per window, on the driver thread, only when a handler
    // is armed.
    if (obs::crash_handler_installed()) {
      obs::crash_store_metrics(obs::Registry::global().snapshot().to_json());
    }
  }
  if (w.partial) {
    SONATA_WARN("engine",
                "window %llu closed PARTIAL: contribution_mask=0x%llx late=%llu shed=%llu",
                static_cast<unsigned long long>(w.window_index),
                static_cast<unsigned long long>(w.contribution_mask),
                static_cast<unsigned long long>(w.late_packets),
                static_cast<unsigned long long>(w.shed_packets));
  }
  std::size_t detections = 0;
  for (const auto& r : w.results) detections += r.outputs.size();
  SONATA_INFO("engine",
              "window %llu: packets=%llu tuples_to_sp=%llu (raw %llu) overflows=%llu "
              "detections=%zu phases[ms] ingest=%.3f compute=%.3f merge=%.3f poll=%.3f "
              "close=%.3f total=%.3f ctrl=%.1f",
              static_cast<unsigned long long>(w.window_index),
              static_cast<unsigned long long>(w.packets),
              static_cast<unsigned long long>(w.tuples_to_sp),
              static_cast<unsigned long long>(w.raw_mirror_packets),
              static_cast<unsigned long long>(w.overflow_records), detections,
              w.phases.ingest_millis(), w.phases.compute_millis(), w.phases.merge_millis(),
              w.phases.poll_millis(), w.phases.close_millis(), w.phases.total_millis(),
              w.control_update_millis);
  return w;
}

std::vector<WindowStats> TelemetryEngine::run_trace(std::span<const net::Packet> trace) {
  std::vector<WindowStats> out;
  const util::Nanos w = plan().window;
  std::size_t begin = 0;
  while (begin < trace.size()) {
    const std::uint64_t idx = util::window_index(trace[begin].ts, w);
    std::size_t end = begin;
    while (end < trace.size() && util::window_index(trace[end].ts, w) == idx) ++end;
    out.push_back(process_window(trace.subspan(begin, end - begin)));
    begin = end;
  }
  return out;
}

// -- EngineBuilder ------------------------------------------------------

EngineBuilder::EngineBuilder() = default;
EngineBuilder::~EngineBuilder() = default;
EngineBuilder::EngineBuilder(EngineBuilder&&) noexcept = default;
EngineBuilder& EngineBuilder::operator=(EngineBuilder&&) noexcept = default;

EngineBuilder& EngineBuilder::topology(std::size_t switches, std::size_t worker_threads) {
  switches_ = std::max<std::size_t>(switches, 1);
  worker_threads_ = worker_threads;
  return *this;
}

EngineBuilder& EngineBuilder::batch(std::size_t batch_size) {
  batch_size_ = std::max<std::size_t>(batch_size, 1);
  return *this;
}

EngineBuilder& EngineBuilder::faults(fault::FaultSpec spec) {
  faults_ = spec;
  return *this;
}

EngineBuilder& EngineBuilder::pin_workers(bool pin) {
  pin_workers_ = pin;
  return *this;
}

EngineBuilder& EngineBuilder::planner(planner::PlannerConfig cfg) {
  planner_ = std::move(cfg);
  return *this;
}

EngineBuilder& EngineBuilder::training(std::span<const net::Packet> packets) {
  windows_ = planner::materialize_windows(packets, planner_.window);
  have_training_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::training_windows(std::vector<planner::TupleWindow> windows) {
  windows_ = std::move(windows);
  have_training_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::tenant(std::string_view name, planner::TenantBudget budget) {
  tenants_.emplace_back(std::string(name), budget);
  return *this;
}

EngineBuilder& EngineBuilder::admit(query::Query q, std::string_view tenant) {
  pending_.push_back({std::move(q), std::string(tenant)});
  return *this;
}

EngineBuilder& EngineBuilder::admit(std::vector<query::Query> queries, std::string_view tenant) {
  for (auto& q : queries) pending_.push_back({std::move(q), std::string(tenant)});
  return *this;
}

util::Expected<EngineBuilder::PlannedSetup, planner::AdmissionDiagnostic>
EngineBuilder::plan_only() {
  if (!have_training_) {
    planner::AdmissionDiagnostic d;
    d.code = planner::AdmissionDiagnostic::Code::kValidation;
    d.message = "no training traffic: call training() or training_windows() before build()";
    return d;
  }
  auto control = std::make_unique<ControlPlane>(planner_, std::move(windows_));
  have_training_ = false;
  for (const auto& [name, budget] : tenants_) control->define_tenant(name, budget);
  // A static list is one batch with one solve, unless a tenant has a
  // budget: its rejections depend on arrival order, so it admits in turn.
  const bool batch = std::all_of(pending_.begin(), pending_.end(), [&](const auto& p) {
    const auto budget = control->planner().tenant_budget(p.tenant);
    return budget && !budget->limited();
  });
  if (batch) {
    std::vector<ControlPlane::Submission> submissions;
    for (auto& p : pending_) submissions.push_back({std::move(p.q), std::move(p.tenant)});
    auto admitted = control->submit_batch(std::move(submissions));
    if (!admitted) return admitted.error();
  } else {
    for (auto& p : pending_) {
      auto admitted = control->submit(std::move(p.q), p.tenant);
      if (!admitted) return admitted.error();
    }
  }
  pending_.clear();
  PlannedSetup setup;
  setup.plan = control->take_snapshot();
  setup.control = std::move(control);
  return setup;
}

util::Expected<std::unique_ptr<TelemetryEngine>, planner::AdmissionDiagnostic>
EngineBuilder::build() {
  auto planned = plan_only();
  if (!planned) return planned.error();
  auto control = std::move(planned->control);
  planner::Plan plan = std::move(planned->plan);
  std::unique_ptr<TelemetryEngine> engine = std::make_unique<Fleet>(
      std::move(plan), switches_, worker_threads_, batch_size_, faults_, pin_workers_);
  engine->control_ = std::move(control);
  return engine;
}

}  // namespace sonata::runtime
