// The engine's dynamic query control plane.
//
// A ControlPlane owns the admitted queries (stable storage — submitting a
// query transfers ownership, so nothing outside the engine has to keep the
// "base queries" alive anymore) and an IncrementalPlanner that places and
// reclaims them without re-solving the untouched set. Drivers never see
// it mid-window: TelemetryEngine::close_window() asks for a fresh plan
// snapshot at the window barrier when submissions or withdrawals are
// pending, so a swap is always bit-exact at a window boundary.
//
// Withdrawn queries are kept on a retired list until the engine has
// actually swapped the old plan out (the outgoing plan's pipelines still
// reference their stream nodes), then freed.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "planner/incremental.h"
#include "query/query.h"
#include "util/expected.h"

namespace sonata::runtime {

class ControlPlane {
 public:
  // `training` windows feed the planner's cost estimators (the same data a
  // static Planner::plan_windows call would use).
  ControlPlane(planner::PlannerConfig cfg, std::vector<planner::TupleWindow> training);

  // Tenants must be defined before they submit; redefining replaces the
  // budget without disturbing existing placements.
  void define_tenant(std::string_view name, planner::TenantBudget budget);

  // Admit `q` for `tenant` ("" = the unlimited default tenant). Takes
  // ownership; the query is validated here if it was not already. On
  // rejection nothing is retained and the diagnostic names the binding
  // constraint.
  [[nodiscard]] util::Expected<planner::AdmitId, planner::AdmissionDiagnostic> submit(
      query::Query q, std::string_view tenant = {});
  // Admit a static list with one solve (IncrementalPlanner::admit_batch):
  // all or nothing, and every tenant must be unlimited. Returns the handles
  // in batch order.
  struct Submission {
    query::Query q;
    std::string tenant;
  };
  [[nodiscard]] util::Expected<std::vector<planner::AdmitId>, planner::AdmissionDiagnostic>
  submit_batch(std::vector<Submission> batch);

  [[nodiscard]] util::Expected<util::Ok, planner::AdmissionDiagnostic> withdraw(
      planner::AdmitId id);

  // Pending submissions/withdrawals since the last snapshot?
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  // Assemble the current active set into a versioned plan and clear the
  // dirty flag. Call free_retired() once the previously installed plan has
  // been replaced.
  [[nodiscard]] planner::Plan take_snapshot();
  void free_retired() { retired_.clear(); }

  // Handle of the active (not withdrawn) query named `name`; nullopt when
  // none is. Names are the operator-facing key (tools/admit scripts).
  [[nodiscard]] std::optional<planner::AdmitId> find(std::string_view name) const;

  [[nodiscard]] const planner::IncrementalPlanner& planner() const noexcept { return planner_; }

 private:
  void publish_tenant_gauges(std::string_view tenant);
  // Validates `q` (a no-op for validated queries).
  [[nodiscard]] std::optional<planner::AdmissionDiagnostic> check(query::Query& q,
                                                                  std::string_view tenant);
  // Count and journal a rejection / an admission.
  void reject(const planner::AdmissionDiagnostic& d, const std::string& name);
  void accept(planner::AdmitId id, std::list<query::Query>::iterator it,
              std::string_view tenant);

  planner::IncrementalPlanner planner_;
  std::list<query::Query> storage_;  // stable addresses for admitted queries
  std::map<planner::AdmitId, std::list<query::Query>::iterator> owned_;
  std::list<query::Query> retired_;  // withdrawn, still referenced by the old plan
  bool dirty_ = false;

  obs::Counter* accepted_ctr_ = nullptr;
  obs::Counter* rejected_ctr_ = nullptr;
  obs::Counter* withdrawn_ctr_ = nullptr;
};

}  // namespace sonata::runtime
