// perfbench: runs one benchmark workload and prints its result as one JSON
// line on stdout (see README.md; perfbench/run.py builds and drives it).
//
//   perfbench --workload snapshot-chain|daemon-tenants|attack-fsl
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// The process works in its current directory: run.py starts it in a fresh
// directory that it removes afterwards. Exit status: 0 when every output
// check passed, 1 when one failed, 2 on a usage error or an exception that
// ended the run.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--spans") {
        options.spanPath = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    if (options.workload == "snapshot-chain") {
      result = perfbench::runSnapshotChain(options);
    } else if (options.workload == "daemon-tenants") {
      result = perfbench::runDaemonTenants(options);
    } else if (options.workload == "attack-fsl") {
      result = perfbench::runAttackFsl(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " ended: " << e.what()
              << "\n";
    return 2;
  }
  std::cout << result.toJson() << std::endl;
  return result.correct ? 0 : 1;
}
