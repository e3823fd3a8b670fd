// Fault-injection restore tests: a mid-restore read error or bit-flip must
// surface as a clean exception with no partial-sink silent success — the
// sink observes a strict prefix of the object, never wrong or reordered
// bytes — at restore parallelism 1 (serial engine) and 4 (prefetch +
// parallel decrypt), and the session must stay usable afterwards.
#include <gtest/gtest.h>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "failing_store.h"
#include "storage/container_backup_store.h"

namespace freqdedup {
namespace {

ByteVec randomContent(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

CdcParams smallCdc() {
  CdcParams p;
  p.minSize = 256;
  p.avgSize = 1024;
  p.maxSize = 4096;
  return p;
}

class FailingStoreRestore : public ::testing::TestWithParam<uint32_t> {
 protected:
  FailingStoreRestore()
      : store_(/*containerBytes=*/16 * 1024),
        failing_(store_),
        km_(toBytes("failing-secret")),
        chunker_(smallCdc()),
        content_(randomContent(31, 128 * 1024)) {}

  [[nodiscard]] uint32_t parallelism() const { return GetParam(); }

  [[nodiscard]] DedupClient makeClient() {
    BackupOptions backup;
    backup.parallelism = parallelism();
    RestoreOptions restore;
    restore.parallelism = parallelism();
    restore.readAheadBatches = 2;
    restore.batchBytes = 8 * 1024;  // several batches across containers
    restore.maxBatchContainers = 2;
    return DedupClient(failing_, km_, chunker_, backup, restore);
  }

  /// Collects sink output; asserts afterwards that it is a strict prefix.
  void expectStrictPrefix(const ByteVec& collected) const {
    ASSERT_LT(collected.size(), content_.size())
        << "a failed restore must not deliver the full object";
    EXPECT_TRUE(std::equal(collected.begin(), collected.end(),
                           content_.begin()))
        << "sink bytes must be a prefix of the object, in order";
  }

  MemBackupStore store_;
  FailingStore failing_;
  KeyManager km_;
  CdcChunker chunker_;
  ByteVec content_;
};

TEST_P(FailingStoreRestore, ReadErrorSurfacesCleanlyWithoutSilentSuccess) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  ASSERT_GT(restore.chunkCount(), 8u) << "need several chunks to fail midway";

  // Fail roughly mid-object (relative to the running read counter).
  failing_.failReadAt(failing_.chunkReadCount() + restore.chunkCount() / 2);
  ByteVec collected;
  EXPECT_THROW(
      restore.streamTo([&](ByteView b) { appendBytes(collected, b); }),
      std::runtime_error);
  expectStrictPrefix(collected);

  // The engine must be clean afterwards: the same session restores fully.
  failing_.resetInjection();
  EXPECT_EQ(restore.readAll(), content_);
}

TEST_P(FailingStoreRestore, BitFlipSurfacesAsFingerprintMismatch) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  failing_.corruptReadAt(failing_.chunkReadCount() + restore.chunkCount() / 2);

  ByteVec collected;
  try {
    restore.streamTo([&](ByteView b) { appendBytes(collected, b); });
    FAIL() << "a corrupted chunk must abort the restore";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  expectStrictPrefix(collected);

  failing_.resetInjection();
  EXPECT_EQ(restore.readAll(), content_);
}

TEST_P(FailingStoreRestore, FailureOnVeryFirstReadDeliversNothing) {
  DedupClient client = makeClient();
  BackupSession session = client.beginBackup("obj");
  session.append(content_);
  const BackupOutcome outcome = session.finish();

  RestoreSession restore =
      client.beginRestore(outcome.fileRecipe, outcome.keyRecipe);
  // Fail the recipe's first chunk itself, not whichever read comes first:
  // at parallelism > 1 the prefetcher may legitimately fetch a later batch
  // before the first one.
  failing_.failReadOf(outcome.fileRecipe.entries.front().cipherFp);
  ByteVec collected;
  EXPECT_THROW(
      restore.streamTo([&](ByteView b) { appendBytes(collected, b); }),
      std::runtime_error);
  EXPECT_TRUE(collected.empty());
}

INSTANTIATE_TEST_SUITE_P(Parallelism, FailingStoreRestore,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace freqdedup
