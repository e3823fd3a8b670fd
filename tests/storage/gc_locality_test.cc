// GC keeps a retained backup's chunks in write order: compaction relocates
// the live chunks of doomed containers in ascending container id and, within
// each, in entry order, so the relocated run of a backup that survives the
// GC reads front to back through the new containers instead of in index
// (hash) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "crypto/key_manager.h"
#include "storage/container_backup_store.h"

namespace freqdedup {
namespace {

ByteVec randomObject(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

TEST(GcRelocationOrder, RetainedBackupStaysInWriteOrderAfterCompaction) {
  // Two sessions append alternately into one store with small containers,
  // so every container mixes chunks of a backup that is then deleted with
  // chunks of one that is kept.
  MemBackupStore store(64 * 1024);
  const KeyManager km(toBytes("gc-locality-secret"));
  CdcParams params;
  params.minSize = 512;
  params.avgSize = 2048;
  params.maxSize = 8192;
  const CdcChunker chunker(params);
  DedupClient client(store, km, chunker);
  const AesKey userKey = userKeyFromPassphrase("gc-locality");
  Rng rng(3);

  constexpr size_t kObjectBytes = 512 * 1024;
  constexpr size_t kAppendBytes = 8 * 1024;
  const ByteVec kept = randomObject(1, kObjectBytes);
  const ByteVec dropped = randomObject(2, kObjectBytes);
  BackupSession keep = client.beginBackup("keep");
  BackupSession drop = client.beginBackup("drop");
  for (size_t off = 0; off < kObjectBytes; off += kAppendBytes) {
    keep.append(ByteView(kept).subspan(off, kAppendBytes));
    drop.append(ByteView(dropped).subspan(off, kAppendBytes));
  }
  const BackupOutcome keepOutcome = keep.finish();
  client.commitBackup("keep", keepOutcome, userKey, rng);
  client.commitBackup("drop", drop.finish(), userKey, rng);

  std::vector<Fp> keptFps;  // in recipe order (random data: no repeats)
  for (const RecipeEntry& e : keepOutcome.fileRecipe.entries)
    keptFps.push_back(e.cipherFp);
  uint32_t maxIdBeforeGc = 0;
  for (const auto& placement : store.chunkLocator(keptFps))
    maxIdBeforeGc = std::max(maxIdBeforeGc, placement->containerId);

  ASSERT_TRUE(client.deleteBackup("drop"));
  const GcStats gc = store.collectGarbage();
  ASSERT_GT(gc.containersCompacted, 0u);
  ASSERT_GT(gc.chunksRelocated, 0u);

  // Across the relocated run, placement never goes backwards.
  size_t relocated = 0;
  std::pair<uint32_t, uint32_t> last{0, 0};
  for (const auto& placement : store.chunkLocator(keptFps)) {
    ASSERT_TRUE(placement.has_value());
    if (placement->containerId <= maxIdBeforeGc) continue;  // did not move
    const std::pair<uint32_t, uint32_t> at{placement->containerId,
                                           placement->entryIndex};
    EXPECT_GE(at, last) << "relocated chunk " << relocated
                        << " is placed before its predecessor";
    last = at;
    ++relocated;
  }
  EXPECT_EQ(relocated, gc.chunksRelocated);

  EXPECT_EQ(client.beginRestore("keep", userKey).readAll(), kept);
  EXPECT_TRUE(store.verify().ok());
}

}  // namespace
}  // namespace freqdedup
