#include "runtime/control_plane.h"

#include <utility>

#include "obs/journal.h"

namespace sonata::runtime {

using planner::AdmissionDiagnostic;

ControlPlane::ControlPlane(planner::PlannerConfig cfg,
                           std::vector<planner::TupleWindow> training)
    : planner_(std::move(cfg), std::move(training)) {
  auto& reg = obs::Registry::global();
  accepted_ctr_ = &reg.counter("sonata_admission_accepted_total");
  rejected_ctr_ = &reg.counter("sonata_admission_rejected_total");
  withdrawn_ctr_ = &reg.counter("sonata_admission_withdrawn_total");
}

void ControlPlane::define_tenant(std::string_view name, planner::TenantBudget budget) {
  planner_.define_tenant(name, budget);
  publish_tenant_gauges(name);
}

void ControlPlane::publish_tenant_gauges(std::string_view tenant) {
  if (!obs::enabled()) return;
  const planner::TenantUsage usage = planner_.tenant_usage(tenant);
  const std::pair<std::string_view, std::string> labels[] = {
      {"tenant", std::string(tenant.empty() ? std::string_view{"default"} : tenant)}};
  auto& reg = obs::Registry::global();
  reg.gauge(obs::labeled("sonata_tenant_stage_tables", labels))
      .set(static_cast<std::int64_t>(usage.stage_tables));
  reg.gauge(obs::labeled("sonata_tenant_register_bits", labels))
      .set(static_cast<std::int64_t>(usage.register_bits));
  reg.gauge(obs::labeled("sonata_tenant_queries", labels))
      .set(static_cast<std::int64_t>(usage.queries));
}

std::optional<AdmissionDiagnostic> ControlPlane::check(query::Query& q,
                                                      std::string_view tenant) {
  AdmissionDiagnostic d;
  d.code = AdmissionDiagnostic::Code::kValidation;
  d.tenant = std::string(tenant);
  if (q.root() == nullptr) {
    d.message = "query \"" + q.name() + "\" has no operator tree";
  } else if (const std::string err = q.validate(); !err.empty()) {
    // Idempotent for already-validated queries; a DSL front-end hands us
    // validated ones, but programmatic callers may not have bothered.
    d.message = "query \"" + q.name() + "\": " + err;
  } else {
    return std::nullopt;
  }
  return d;
}

void ControlPlane::reject(const AdmissionDiagnostic& d, const std::string& name) {
  rejected_ctr_->add(1);
  // Admissions have no window context; window_id 0 marks control-plane
  // events that land between windows.
  obs::Journal::global().emit(obs::EventType::kAdmissionRejected, 0, 0, 0,
                              static_cast<std::int64_t>(d.code), 0, 0, name);
}

void ControlPlane::accept(planner::AdmitId id, std::list<query::Query>::iterator it,
                          std::string_view tenant) {
  owned_.emplace(id, it);
  dirty_ = true;
  accepted_ctr_->add(1);
  obs::Journal::global().emit(obs::EventType::kAdmissionAccepted, 0, id, 0, 0, 0, 0,
                              it->name());
  publish_tenant_gauges(tenant);
}

util::Expected<planner::AdmitId, AdmissionDiagnostic> ControlPlane::submit(
    query::Query q, std::string_view tenant) {
  if (auto d = check(q, tenant)) {
    reject(*d, q.name());
    return *d;
  }
  storage_.push_back(std::move(q));
  const auto it = std::prev(storage_.end());
  auto admitted = planner_.admit(*it, tenant);
  if (!admitted) {
    reject(admitted.error(), it->name());
    storage_.erase(it);
    return admitted.error();
  }
  accept(*admitted, it, tenant);
  return *admitted;
}

util::Expected<std::vector<planner::AdmitId>, AdmissionDiagnostic> ControlPlane::submit_batch(
    std::vector<Submission> batch) {
  // A rejected batch counts every one of its queries as rejected.
  for (auto& sub : batch) {
    if (auto d = check(sub.q, sub.tenant)) {
      for (const auto& s : batch) reject(*d, s.q.name());
      return *d;
    }
  }
  std::vector<std::list<query::Query>::iterator> stored;
  std::vector<planner::IncrementalPlanner::Admission> admissions;
  for (auto& sub : batch) {
    storage_.push_back(std::move(sub.q));
    stored.push_back(std::prev(storage_.end()));
    admissions.push_back({&storage_.back(), sub.tenant});
  }
  auto admitted = planner_.admit_batch(admissions);
  if (!admitted) {
    for (const auto it : stored) {
      reject(admitted.error(), it->name());
      storage_.erase(it);
    }
    return admitted.error();
  }
  for (std::size_t i = 0; i < stored.size(); ++i) {
    accept((*admitted)[i], stored[i], batch[i].tenant);
  }
  return admitted;
}

util::Expected<util::Ok, AdmissionDiagnostic> ControlPlane::withdraw(planner::AdmitId id) {
  const auto it = owned_.find(id);
  if (it == owned_.end()) {
    AdmissionDiagnostic d;
    d.code = AdmissionDiagnostic::Code::kUnknownHandle;
    d.message = "handle " + std::to_string(id) + " is not an active query";
    return d;
  }
  const std::string tenant{planner_.tenant_of(id)};
  auto result = planner_.withdraw(id);
  if (!result) return result.error();
  // The outgoing plan's pipelines still reference this query's stream
  // nodes; park it until the engine has swapped the plan out.
  retired_.splice(retired_.end(), storage_, it->second);
  owned_.erase(it);
  dirty_ = true;
  withdrawn_ctr_->add(1);
  obs::Journal::global().emit(obs::EventType::kAdmissionWithdrawn, 0, id, 0, 0, 0, 0, tenant);
  publish_tenant_gauges(tenant);
  return util::Ok{};
}

std::optional<planner::AdmitId> ControlPlane::find(std::string_view name) const {
  for (const auto& [id, it] : owned_) {
    if (it->name() == name) return id;
  }
  return std::nullopt;
}

planner::Plan ControlPlane::take_snapshot() {
  dirty_ = false;
  return planner_.snapshot_plan();
}

}  // namespace sonata::runtime
