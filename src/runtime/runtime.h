// Sonata's single-switch runtime (paper Figure 6): the one-switch, inline
// deployment of the in-process driver (runtime/fleet.h). It adds nothing
// to Fleet — the window loop, dynamic refinement, closed-loop mitigation
// and the re-planning trigger all live there, once — and only names the
// construction callers use for one switch.
#pragma once

#include <cstddef>

#include "fault/fault.h"
#include "planner/planner.h"
#include "runtime/fleet.h"

namespace sonata::runtime {

class Runtime final : public Fleet {
 public:
  // Takes ownership of a copy of the plan; the *base queries* the plan
  // references must outlive the Runtime. `batch_size` is the data-path
  // handoff granularity (1 = per-packet path; any value produces
  // bit-identical windows). `faults` configures deterministic fault
  // injection; worker stalls and the watchdog are inert here (there is no
  // worker to stall).
  explicit Runtime(planner::Plan plan, std::size_t batch_size = 1, fault::FaultSpec faults = {})
      : Fleet(std::move(plan), 1, 0, batch_size, faults) {}
};

}  // namespace sonata::runtime
