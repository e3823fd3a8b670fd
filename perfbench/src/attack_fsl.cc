// attack-fsl: the paper's headline attack on the analysis engine alone. An
// FSL-like dataset (generateFslDataset) is generated from the seed; its
// latest backup, MLE-encrypted, is the target and the backup before it the
// auxiliary plaintext. Each operation builds a fresh 4-thread AttackEngine
// and runs the advanced ciphertext-only locality attack (Algorithm 3, u=1,
// v=15, w scaled to the dataset).
#include <cmath>
#include <iostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/attack_engine.h"
#include "core/defense.h"
#include "datagen/fsl_gen.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace freqdedup;
using analysis::AnalysisOptions;
using analysis::AttackEngine;

/// Dataset scale relative to the generator's defaults (as FDD_BENCH_SCALE
/// scales bench/expcommon's datasets): at 10 the target and the auxiliary
/// backup have ~1.65 M records each and one 4-thread attack takes about a
/// second.
constexpr double kScale = 10;
constexpr uint32_t kThreads = 4;
/// Measured attacks even when --seconds runs out first.
constexpr int kMinAttacks = 3;

size_t scaled(size_t base) {
  return static_cast<size_t>(std::llround(static_cast<double>(base) * kScale));
}

struct Inputs {
  std::vector<ChunkRecord> aux;     // plaintext of the previous backup
  std::vector<ChunkRecord> target;  // plaintext of the latest backup
  EncryptedTrace encrypted;         // the latest backup, MLE-encrypted
};

/// Input generation: what setup_s times (there is no store or daemon).
Inputs setUp(uint64_t seed) {
  FslGenParams params;
  params.seed = seed;
  params.filesPerUser = static_cast<int>(scaled(static_cast<size_t>(params.filesPerUser)));
  params.sharedTemplateFiles = scaled(params.sharedTemplateFiles);
  Dataset dataset = generateFslDataset(params);
  const size_t n = dataset.backups.size();
  Inputs inputs;
  inputs.aux = std::move(dataset.backups[n - 2].records);
  inputs.target = std::move(dataset.backups[n - 1].records);
  inputs.encrypted = mleEncryptTrace(inputs.target, kFslFpBits, kThreads);
  return inputs;
}

AttackConfig attackConfig() {
  AttackConfig config;
  config.u = 1;
  config.v = 15;
  config.w = scaled(2000);  // the paper's 200k, scaled as exp::scaledW does
  config.sizeAware = true;  // Algorithm 3
  return config;
}

struct Timings {
  double internS = 0, countS = 0, neighborS = 0, walkS = 0;
};

AttackResult attack(const Inputs& inputs, uint32_t threads, SpanLog& log,
                    Timings& t) {
  AnalysisOptions options;
  options.threads = threads;
  Span span(log, "attack");
  uint64_t start = nowNs();
  AttackEngine engine = [&] {
    Span phase(log, "analysis.fromRecords");
    return AttackEngine::fromRecords(inputs.encrypted.records, inputs.aux,
                                     options);
  }();
  t.internS = secondsSince(start);
  start = nowNs();
  {
    Span phase(log, "analysis.buildFrequencies");
    engine.buildFrequencies();
  }
  t.countS = secondsSince(start);
  start = nowNs();
  {
    Span phase(log, "analysis.buildNeighbors");
    engine.buildNeighbors();
  }
  t.neighborS = secondsSince(start);
  start = nowNs();
  AttackResult result;
  {
    Span phase(log, "analysis.localityAttack");
    result = engine.localityAttack(attackConfig());
  }
  t.walkS = secondsSince(start);
  return result;
}

double logicalBytes(const std::vector<ChunkRecord>& records) {
  double bytes = 0;
  for (const ChunkRecord& r : records) bytes += r.size;
  return bytes;
}

}  // namespace

RunResult runAttackFsl(const Options& options) {
  RunResult result;
  addPerLayerDefaults(result);
  SpanLog log(options.trace);

  std::vector<double> setupSeconds;
  Inputs inputs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    inputs = {};
    const uint64_t start = nowNs();
    inputs = setUp(options.seed);
    setupSeconds.push_back(secondsSince(start));
  }

  // Ground truth built apart from the program: zip the target's ciphertext
  // and plaintext records position by position.
  const std::vector<ChunkRecord>& cipher = inputs.encrypted.records;
  result.check(cipher.size() == inputs.target.size(),
               "the encrypted target has one record per plaintext record");
  std::unordered_map<Fp, Fp, FpHash> truth;
  bool oneToOne = true;
  for (size_t i = 0; i < cipher.size() && i < inputs.target.size(); ++i) {
    const auto [it, inserted] = truth.emplace(cipher[i].fp, inputs.target[i].fp);
    if (!inserted && it->second != inputs.target[i].fp) oneToOne = false;
  }
  result.check(oneToOne, "MLE maps each ciphertext chunk to one plaintext chunk");
  std::unordered_set<Fp, FpHash> auxFps;
  for (const ChunkRecord& r : inputs.aux) auxFps.insert(r.fp);

  const double records = static_cast<double>(cipher.size() + inputs.aux.size());
  const double bytes = logicalBytes(inputs.target) + logicalBytes(inputs.aux);

  std::vector<double> buildMs, walkMs;
  double buildS = 0, walkS = 0, processedPairs = 0;
  Timings sum;
  AttackResult first;
  uint64_t correct = 0;

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const uint64_t measureStart = nowNs();
  int attacks = 0;
  while (attacks < kMinAttacks || secondsSince(measureStart) < options.seconds) {
    Timings t;
    ++result.attempted;
    AttackResult res = attack(inputs, kThreads, log, t);
    ++attacks;
    const double build = t.internS + t.countS + t.neighborS;
    buildMs.push_back(build * 1e3);
    walkMs.push_back(t.walkS * 1e3);
    buildS += build;
    walkS += t.walkS;
    sum.internS += t.internS;
    sum.countS += t.countS;
    sum.neighborS += t.neighborS;
    processedPairs += static_cast<double>(res.processedPairs);

    // Score against the ground truth; every inferred key must be a
    // ciphertext chunk of the target and every value a plaintext chunk of
    // the auxiliary backup.
    uint64_t right = 0;
    bool keysValid = true;
    bool valuesValid = true;
    for (const auto& [c, m] : res.inferred) {
      const auto it = truth.find(c);
      if (it == truth.end()) {
        keysValid = false;
        continue;
      }
      if (!auxFps.contains(m)) valuesValid = false;
      if (it->second == m) ++right;
    }
    result.check(keysValid, "every inferred key is a ciphertext chunk of the target");
    result.check(valuesValid,
                 "every inferred value is a plaintext chunk of the auxiliary backup");
    if (attacks == 1) {
      correct = right;
      first = std::move(res);
    } else {
      result.check(res.inferred == first.inferred,
                   "every attack infers the same map");
    }
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();

  // The engine's determinism guarantee, once per run and not timed: the
  // 1-thread map equals the 4-thread map.
  {
    Timings t;
    const AttackResult serial = attack(inputs, 1, log, t);
    result.check(serial.inferred == first.inferred,
                 "the 1-thread attack infers the same map as 4 threads");
  }
  std::cerr << "perfbench: attack-fsl inferred " << first.inferred.size()
            << " chunks, " << correct << " correctly, of " << truth.size()
            << " unique target chunks\n";

  result.e2e("ingest_mb_s", ratio(bytes * attacks / 1e6, buildS), "MB/s");
  result.e2e("ingest_p50_ms", median(buildMs), "ms");
  result.e2e("read_mb_s", ratio(bytes * attacks / 1e6, walkS), "MB/s");
  result.e2e("read_p50_ms", median(walkMs), "ms");
  result.e2e("setup_s", median(setupSeconds), "s");
  result.e2e("peak_rss_mb", peakRssMb(), "MB");

  result.layer("analysis.intern_chunks_s", ratio(records * attacks, sum.internS),
               "chunks/s");
  result.layer("analysis.count_chunks_s", ratio(records * attacks, sum.countS),
               "chunks/s");
  result.layer("analysis.neighbor_build_chunks_s",
               ratio(records * attacks, sum.neighborS), "chunks/s");
  result.layer("analysis.walk_pairs_s", ratio(processedPairs, walkS), "pairs/s");
  result.layer("analysis.rows_touched_per_pair",
               ratio(counterDelta(after, before, "attack.rows_touched"),
                     processedPairs),
               "ratio");
  result.layer("analysis.peak_tracked_mb",
               static_cast<double>(
                   after.histogram("analysis.peak_tracked_bytes").max) /
                   1e6,
               "MB");

  result.info["target_records"] = static_cast<double>(cipher.size());
  result.info["aux_records"] = static_cast<double>(inputs.aux.size());
  result.info["target_unique_chunks"] = static_cast<double>(truth.size());
  result.info["logical_mb"] = bytes / 1e6;
  result.info["attacks"] = attacks;
  result.info["inferred"] = static_cast<double>(first.inferred.size());
  result.info["correct_inferences"] = static_cast<double>(correct);
  result.info["inference_rate"] =
      ratio(static_cast<double>(correct), static_cast<double>(truth.size()));
  result.info["processed_pairs_per_attack"] = processedPairs / attacks;
  result.info["spans"] = static_cast<double>(log.size());
  if (options.trace && !options.spanPath.empty())
    result.check(log.writeChromeTrace(options.spanPath),
                 "write spans to " + options.spanPath);
  return result;
}

}  // namespace perfbench
