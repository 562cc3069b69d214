// One simulated point through the public lifecycle: ExperimentSpec items
// -> finalize -> TopologyCache -> Session phases -> collect ->
// ResultWriter row, with the phase boundaries timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "harness.hpp"
#include "topology/topology_cache.hpp"

namespace perfbench {

struct PointInput {
  std::string label;
  std::vector<std::string> items;  ///< ExperimentSpec "key=value" items
};

struct PointRun {
  std::string row;  ///< ResultWriter CSV row of this single replica
  dragonfly::SimResult result;
  dragonfly::SimConfig cfg;
  double miss_s = 0.0;    ///< spec items -> rendered row
  double refine_s = 0.0;  ///< Measure boundary -> rendered row
  double hit_s = 0.0;     ///< Done -> rendered row
  double step_s = 0.0;    ///< host seconds inside Session stepping calls
  double step_cpu_s = 0.0;
  std::int64_t routers = 0;
  std::int64_t cycles = 0;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t events = 0;
  int gen_nodes = 0;
  std::size_t fairness_n = 0;
  int groups = 0;
};

/// Items -> finalized config (spans core.spec_parse, config.validate).
dragonfly::SimConfig parse_point(const PointInput& in, Tracer& tracer);

/// Run one point to Done and render its row.
PointRun run_point(const PointInput& in, dragonfly::TopologyCache& cache,
                   Tracer& tracer);

}  // namespace perfbench
