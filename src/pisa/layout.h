// Stage layout: place every program's match-action tables into the
// physical pipeline subject to the ILP's switch constraints (paper Table 2):
//   C1  per-stage register bits  <= B
//   C2  per-stage stateful ops   <= A
//   C3  every table in a stage    < S
//   C4  tables of one query in increasing stage order
//   C5  total PHV metadata       <= M
// plus the per-register cap within a stage.
//
// Independent queries share stages freely; dependent tables of the same
// pipeline occupy strictly increasing stages. The greedy earliest-fit order
// is optimal for C3/C4 given per-stage capacities, and the planner treats a
// failed layout as an infeasible candidate plan.
//
// Programs are placed one at a time, in order, and a placed table never
// moves, so the stage fill of a program prefix does not depend on what
// follows it. assign_stages() is a fold of place() over the programs; the
// planner keeps a prefix's fill and probes each candidate program with
// place() on a copy of it instead of re-laying the whole prefix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/config.h"
#include "pisa/program.h"

namespace sonata::pisa {

struct StageUsage {
  int stateful = 0;
  int stateless_actions = 0;
  std::uint64_t register_bits = 0;
};

// Per-stage usage plus PHV metadata bits of a placed program prefix.
struct StageFill {
  StageFill() = default;
  explicit StageFill(const SwitchConfig& cfg)
      : stages(static_cast<std::size_t>(cfg.stages)) {}

  std::vector<StageUsage> stages;
  int metadata_bits = 0;
};

struct Layout {
  bool feasible = false;
  std::string error;                           // why layout failed
  std::vector<std::vector<int>> table_stages;  // [program][table] -> stage
  std::vector<StageUsage> stages;
  int metadata_bits_used = 0;
};

// Earliest-fit placement of `program` on top of `fill` (C1-C5 and the
// per-register cap). On success adds the program's usage to `fill`, appends
// each table's stage to `table_stages` (when given) and returns true. On
// failure returns false with the reason in `error` (when given) and `fill`
// partly updated: probe candidates on a copy.
[[nodiscard]] bool place(const SwitchConfig& cfg, StageFill& fill,
                         const ProgramResources& program,
                         std::vector<int>* table_stages = nullptr,
                         std::string* error = nullptr);

[[nodiscard]] Layout assign_stages(const SwitchConfig& cfg,
                                   const std::vector<ProgramResources>& programs);

}  // namespace sonata::pisa
