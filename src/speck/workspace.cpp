#include "speck/workspace.h"

#include <algorithm>

#include "common/check.h"

namespace speck {

void WorkspacePool::ensure(int workers) {
  SPECK_REQUIRE(workers >= 1, "workspace pool needs at least one worker");
  while (slots_.size() < static_cast<std::size_t>(workers)) {
    slots_.push_back(std::make_unique<KernelWorkspace>());
  }
}

void PartitionWorkspaces::ensure(int teams, int slots_per_team) {
  SPECK_REQUIRE(teams >= 1, "partition workspaces need at least one team");
  while (teams_.size() < static_cast<std::size_t>(teams)) {
    teams_.push_back(std::make_unique<WorkspacePool>());
  }
  const int slots = std::max(1, slots_per_team);
  for (auto& pool : teams_) pool->ensure(slots);
}

}  // namespace speck
