// The benchmark's workloads. Each runs in its own process, generates its
// inputs from Options::seed, measures for about Options::seconds, checks the
// program's outputs and fills a RunResult. See README.md for their make-up.
#pragma once

#include "report.h"

namespace perfbench {

RunResult runSnapshotChain(const Options& options);
RunResult runDaemonTenants(const Options& options);
RunResult runAttackFsl(const Options& options);

/// Setups per run: set-up is repeated this many times and setup_s reports
/// the median, so one slow start does not move the metric.
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
