// Result of one workload run and the small statistics the workloads share.
//
// A run reports two metric sets: the end-to-end metrics, which every
// workload prints under the same names (BENCHMARK.json lists one set for all
// workloads), and the per-layer metrics of the traced run. A per-layer
// metric whose layer the workload never calls reads 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Written by the traced run when it ends: the in-memory spans as a
  /// Chrome trace_event file. Empty = do not write.
  std::string spanPath;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  /// Workload make-up and check outcomes (bytes, counts, inference rate),
  /// printed beside the metrics for the README and the spread tool.
  std::map<std::string, double> info;

  /// Records the outcome of an output check; a failed check makes the run
  /// incorrect and is reported on stderr.
  void check(bool ok, const std::string& what);

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    perLayer[name] = {value, unit};
  }

  /// One JSON line: {"correct","attempted","failed","end_to_end",
  /// "per_layer","info"}.
  [[nodiscard]] std::string toJson() const;
};

/// Monotonic clock in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB (10^6 bytes).
double peakRssMb();

/// Safe ratio: 0 when the denominator is 0 (a layer the run never called).
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Every per-layer metric of BENCHMARK.json with its unit. A workload fills
/// the ones on its path; the rest stay 0.
void addPerLayerDefaults(RunResult& result);

}  // namespace perfbench
