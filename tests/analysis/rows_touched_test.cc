// attack.rows_touched counts the neighbor-list entries the locality walk
// scans: for every processed pair, the sizes of the ciphertext and plaintext
// left and right neighbor lists. Like the walk's results, the count does not
// depend on the thread count.
#include <gtest/gtest.h>

#include "analysis/attack_engine.h"
#include "common/rng.h"
#include "core/defense.h"
#include "obs/metrics.h"

namespace freqdedup {
namespace {

uint64_t rowsTouched() {
  return obs::MetricsRegistry::global().counter("attack.rows_touched").value();
}

/// rows_touched added by one ciphertext-only locality attack.
uint64_t rowsForAttack(std::span<const ChunkRecord> cipher,
                       std::span<const ChunkRecord> plain,
                       analysis::AnalysisOptions options,
                       uint64_t* processedPairs) {
  analysis::AttackEngine engine =
      analysis::AttackEngine::fromRecords(cipher, plain, options);
  AttackConfig config;
  config.u = 2;
  config.v = 5;
  config.w = 1000;
  const uint64_t before = rowsTouched();
  const AttackResult result = engine.localityAttack(config);
  if (processedPairs != nullptr) *processedPairs = result.processedPairs;
  return rowsTouched() - before;
}

TEST(RowsTouched, CountsTheFourNeighborListsOfEachPair) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "metrics compiled out";
  // Two chunks, X then Y: whichever pairs the walk processes, each chunk has
  // one neighbor on one side and none on the other, so every processed pair
  // scans exactly two rows (one ciphertext, one plaintext).
  const std::vector<ChunkRecord> plain = {{11, 100}, {22, 100}};
  const EncryptedTrace cipher = mleEncryptTrace(plain);
  uint64_t processed = 0;
  const uint64_t rows = rowsForAttack(cipher.records, plain, {}, &processed);
  ASSERT_GT(processed, 0u);
  EXPECT_EQ(rows, 2 * processed);
}

TEST(RowsTouched, SameCountAtEveryThreadCount) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "metrics compiled out";
  Rng rng(5);
  std::vector<ChunkRecord> plain;
  for (int i = 0; i < 4000; ++i) {
    const Fp fp = rng.bernoulli(0.7) ? rng.uniformInt(0, 300) : 1000 + i;
    plain.push_back({fp, 100});
  }
  const EncryptedTrace cipher = mleEncryptTrace(plain);

  uint64_t processed = 0;
  const uint64_t serial = rowsForAttack(cipher.records, plain, {}, &processed);
  EXPECT_GT(serial, processed);  // neighbor rows, not pairs
  analysis::AnalysisOptions parallel;
  parallel.threads = 4;
  parallel.plan = analysis::ComputePlan::kParallel;
  EXPECT_EQ(rowsForAttack(cipher.records, plain, parallel, nullptr), serial);
}

}  // namespace
}  // namespace freqdedup
