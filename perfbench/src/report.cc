#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";  // the output check rejects it
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void metricMap(std::ostringstream& out,
               const std::map<std::string, Metric>& metrics) {
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"value\":" << number(m.value)
        << ",\"unit\":\"" << m.unit << "\"}";
  }
  out << "}";
}

}  // namespace

std::string RunResult::toJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"end_to_end\":";
  metricMap(out, endToEnd);
  out << ",\"per_layer\":";
  metricMap(out, perLayer);
  out << ",\"info\":{";
  bool first = true;
  for (const auto& [name, v] : info) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << number(v);
  }
  out << "}}";
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

void addPerLayerDefaults(RunResult& result) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"chunking.ns_per_byte", "ns/B"},
      {"client.backup_self_ns_per_byte", "ns/B"},
      {"client.restore_ns_per_byte", "ns/B"},
      {"storage.put_new_ns_per_chunk", "ns"},
      {"storage.put_dup_ns_per_chunk", "ns"},
      {"storage.record_backup_p50_ms", "ms"},
      {"storage.fetch_ns_per_byte", "ns/B"},
      {"storage.locate_ns_per_chunk", "ns"},
      {"storage.container_loads_per_mb", "1/MB"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.container_write_bytes_per_logical_byte", "ratio"},
      {"storage.gc_relocated_per_reclaimed_chunk", "ratio"},
      {"storage.gc_step_p50_ms", "ms"},
      {"storage.stored_bytes_per_logical_byte", "ratio"},
      {"kvstore.sync_mean_us", "us"},
      {"kvstore.syncs_per_commit", "ratio"},
      {"kvstore.checkpoint_ms", "ms"},
      {"server.append_rtt_p50_ms", "ms"},
      {"server.finish_rtt_p50_ms", "ms"},
      {"server.request_mean_us", "us"},
      {"server.wire_bytes_per_logical_byte", "ratio"},
      {"tail.backup_p95_ms", "ms"},
      {"tail.restore_p95_ms", "ms"},
      {"analysis.intern_chunks_s", "chunks/s"},
      {"analysis.count_chunks_s", "chunks/s"},
      {"analysis.neighbor_build_chunks_s", "chunks/s"},
      {"analysis.walk_pairs_s", "pairs/s"},
      {"analysis.rows_touched_per_pair", "ratio"},
      {"analysis.peak_tracked_mb", "MB"},
  };
  for (const auto& [name, unit] : kPerLayer) result.layer(name, 0, unit);
}

}  // namespace perfbench
