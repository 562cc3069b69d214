// The benchmark's workloads. Each runs whole rounds of a fixed set of
// operations for at least Options::seconds, checks every output, and
// fills a Report (see README.md for the make-up of each).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// `paper-h6`.
Report run_paper(const Options& opts);
/// `service-mix`.
Report run_service_mix(const Options& opts);

}  // namespace perfbench
