#include "pisa/layout.h"

namespace sonata::pisa {

namespace {
std::string metadata_error(int bits, const SwitchConfig& cfg) {
  return "metadata budget exceeded: " + std::to_string(bits) + " > " +
         std::to_string(cfg.metadata_bits) + " bits (C5)";
}
}  // namespace

bool place(const SwitchConfig& cfg, StageFill& fill, const ProgramResources& program,
           std::vector<int>* table_stages, std::string* error) {
  // C5: metadata of the prefix plus this program.
  const int metadata = fill.metadata_bits + program.metadata_bits;
  if (static_cast<std::uint64_t>(metadata) > cfg.metadata_bits) {
    if (error) *error = metadata_error(metadata, cfg);
    return false;
  }
  fill.metadata_bits = metadata;

  int prev_stage = -1;
  if (table_stages) table_stages->reserve(program.tables.size());
  for (const auto& table : program.tables) {
    if (table.stateful && table.register_bits > cfg.max_bits_per_register) {
      if (error) {
        *error = "table " + table.name + " needs " + std::to_string(table.register_bits) +
                 " register bits; per-register cap is " +
                 std::to_string(cfg.max_bits_per_register);
      }
      return false;
    }
    int placed = -1;
    for (int s = prev_stage + 1; s < cfg.stages; ++s) {
      const StageUsage& u = fill.stages[static_cast<std::size_t>(s)];
      const bool stateful_ok = !table.stateful || u.stateful < cfg.stateful_actions_per_stage;
      const bool actions_ok =
          u.stateless_actions + table.actions <= cfg.stateless_actions_per_stage;
      const bool bits_ok = u.register_bits + table.register_bits <= cfg.register_bits_per_stage;
      if (stateful_ok && actions_ok && bits_ok) {
        placed = s;
        break;
      }
    }
    if (placed < 0) {
      if (error) {
        *error = "no stage fits table " + table.name + " (S=" + std::to_string(cfg.stages) +
                 ", C1-C4)";
      }
      return false;
    }
    StageUsage& u = fill.stages[static_cast<std::size_t>(placed)];
    if (table.stateful) ++u.stateful;
    u.stateless_actions += table.actions;
    u.register_bits += table.register_bits;
    if (table_stages) table_stages->push_back(placed);
    prev_stage = placed;
  }
  return true;
}

Layout assign_stages(const SwitchConfig& cfg, const std::vector<ProgramResources>& programs) {
  Layout layout;
  layout.table_stages.resize(programs.size());
  StageFill fill(cfg);

  // C5 over the whole set first, so its error wins over a table that
  // would not fit.
  int metadata = 0;
  for (const auto& p : programs) metadata += p.metadata_bits;
  layout.metadata_bits_used = metadata;
  if (static_cast<std::uint64_t>(metadata) > cfg.metadata_bits) {
    layout.error = metadata_error(metadata, cfg);
    layout.stages = std::move(fill.stages);
    return layout;
  }

  layout.feasible = true;
  for (std::size_t pi = 0; pi < programs.size() && layout.feasible; ++pi) {
    layout.feasible = place(cfg, fill, programs[pi], &layout.table_stages[pi], &layout.error);
  }
  layout.stages = std::move(fill.stages);
  return layout;
}

}  // namespace sonata::pisa
