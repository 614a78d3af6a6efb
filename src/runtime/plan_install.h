// Shared switch-program builder for every driver.
//
// The single copy of the compile-and-collect loop that turns a
// planner::Plan into installable pipelines, used by the Fleet and both
// distributed roles. It adds partial recompilation: pipelines handed back
// from the previous program (Switch::release_pipelines) are reused — after
// a runtime-state reset — whenever their compile key (query, source, level,
// partition, sizing, hash seed, and the exact augmented chain) is
// unchanged. On a control-plane swap only the admitted/withdrawn queries'
// pipelines are recompiled; everything else is carried over.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pisa/switch.h"
#include "planner/planner.h"

namespace sonata::runtime {

struct PipelineBuild {
  std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> pipelines;
  std::vector<pisa::ProgramResources> resources;
  std::uint64_t recompiled = 0;
  std::uint64_t reused = 0;
};

// Fault-injection knobs applied at compile time (initial installs only;
// control-plane swaps install clean).
struct PipelineBuildOptions {
  std::size_t register_shrink = 1;  // divide register entries (register pressure)
  std::uint64_t hash_seed = 0;      // adversarial register hash seed
};

// Compile `plan`'s installed pipelines (partition > 0) in plan order,
// reusing matching entries from `reusable` (consumed). Publishes
// sonata_pipelines_{recompiled,reused}_total when observability is on.
[[nodiscard]] PipelineBuild build_pipelines(
    const planner::Plan& plan,
    std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> reusable,
    const PipelineBuildOptions& opts = {});

}  // namespace sonata::runtime
