// snapshot-chain: the paper's backup workload (synthetic dataset, §5.1),
// in-process. A corpus from generateCorpus is mutated into a chain of
// snapshots with mutateSnapshot; each step backs up one snapshot as one
// object in 1 MiB appends through an MLE DedupClient over a file store,
// waits for the durable commit, deletes the oldest snapshot beyond the
// retention window and collects garbage, then restores every retained
// snapshot and compares it with the generated bytes.
#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/hash.h"
#include "crypto/key_manager.h"
#include "datagen/file_corpus.h"
#include "datagen/snapshot_gen.h"
#include "obs/metrics.h"
#include "probes.h"
#include "storage/backup_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace freqdedup;

/// The initial snapshot: the home trees of kUsers users, each an
/// independent generateCorpus tree (the corpus default's file density and
/// pool-block share per file) cut to kUserBytes by dropping the files past
/// it in name order. Every seed thus starts from the same size, and the
/// dedup structure averages over several independent block pools instead
/// of hinging on the few most popular blocks of one. The stored chunks of a
/// snapshot (~90 MB) exceed the store's 64 MiB default block cache, so
/// restores measure container fetch.
constexpr int kUsers = 6;
constexpr uint64_t kUserBytes = 25'000'000;
constexpr uint64_t kUserTargetBytes = 22ull << 20;  // generated, then cut
constexpr int kUserFiles = 100;
constexpr size_t kUserPoolBlocks = 40;
constexpr size_t kAppendBytes = 1 << 20;
/// Snapshots kept in the store; each step beyond it deletes the oldest.
constexpr size_t kRetained = 2;
/// Measured steps even when --seconds runs out first.
constexpr int kMinSteps = 3;
constexpr uint32_t kParallelism = 4;

struct Snapshot {
  std::string name;
  ByteVec bytes;
};

/// Everything set-up creates, destroyed in reverse order (client first).
struct Chain {
  explicit Chain(uint64_t seed)
      : keys(toBytes("perfbench-mle-secret-" + std::to_string(seed))) {}

  FileCorpus corpus;
  std::unique_ptr<BackupStore> fileStore;
  CdcChunker cdc;
  KeyManager keys;
  std::unique_ptr<TimingStore> timingStore;      // traced runs only
  std::unique_ptr<TimingChunker> timingChunker;  // traced runs only
  std::unique_ptr<DedupClient> client;
};

/// Input generation plus store open: what setup_s times.
std::unique_ptr<Chain> setUp(const Options& options, SpanLog& log,
                             const std::string& dir) {
  auto chain = std::make_unique<Chain>(options.seed);
  for (int u = 0; u < kUsers; ++u) {
    CorpusParams corpus;
    corpus.seed = options.seed * kUsers + static_cast<uint64_t>(u);
    corpus.fileCount = kUserFiles;
    corpus.targetBytes = kUserTargetBytes;
    corpus.poolBlocks = kUserPoolBlocks;
    FileCorpus tree = generateCorpus(corpus);
    uint64_t total = corpusBytes(tree);
    while (total > kUserBytes) {
      const auto last = std::prev(tree.end());
      total -= last->second.size();
      tree.erase(last);
    }
    for (auto& [name, content] : tree)
      chain->corpus.emplace("user" + std::to_string(u) + "/" + name,
                            std::move(content));
  }
  chain->fileStore = makeBackupStore(StoreBackend::kFile, dir);
  BackupStore* store = chain->fileStore.get();
  const Chunker* chunker = &chain->cdc;
  if (options.trace) {
    chain->timingStore = std::make_unique<TimingStore>(*store, log);
    chain->timingChunker = std::make_unique<TimingChunker>(*chunker);
    store = chain->timingStore.get();
    chunker = chain->timingChunker.get();
  }
  BackupOptions backup;
  backup.scheme = EncryptionScheme::kMle;
  backup.parallelism = kParallelism;
  RestoreOptions restore;
  restore.parallelism = kParallelism;
  chain->client = std::make_unique<DedupClient>(*store, chain->keys, *chunker,
                                                backup, restore);
  return chain;
}

/// The snapshot as one object: its files concatenated in name order.
ByteVec materialize(const FileCorpus& corpus) {
  ByteVec bytes;
  bytes.reserve(corpusBytes(corpus));
  for (const auto& [name, content] : corpus)
    bytes.insert(bytes.end(), content.begin(), content.end());
  return bytes;
}

/// Distinct chunks of the given snapshots, by SHA-256 of the chunks
/// CdcChunker::split cuts — counted apart from the store.
size_t distinctChunks(const std::deque<Snapshot>& snapshots) {
  std::vector<std::future<std::vector<std::string>>> parts;
  for (const Snapshot& s : snapshots) {
    parts.push_back(std::async(std::launch::async, [&s] {
      const CdcChunker cdc;
      std::vector<std::string> digests;
      for (const ChunkSpan& c : cdc.split(s.bytes)) {
        const Digest d = sha256(chunkBytes(s.bytes, c));
        digests.emplace_back(reinterpret_cast<const char*>(d.bytes.data()),
                             d.size);
      }
      return digests;
    }));
  }
  std::unordered_set<std::string> distinct;
  for (auto& part : parts)
    for (std::string& d : part.get()) distinct.insert(std::move(d));
  return distinct.size();
}

}  // namespace

RunResult runSnapshotChain(const Options& options) {
  RunResult result;
  addPerLayerDefaults(result);
  SpanLog log(options.trace);

  std::vector<double> setupSeconds;
  std::unique_ptr<Chain> chain;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = "store-" + std::to_string(k);
    const uint64_t start = nowNs();
    chain = setUp(options, log, dir);
    setupSeconds.push_back(secondsSince(start));
    if (k + 1 < kSetupRepeats) {
      chain.reset();
      std::filesystem::remove_all(dir);
    }
  }

  DedupClient& client = *chain->client;
  BackupStore& fileStore = *chain->fileStore;
  const AesKey userKey =
      userKeyFromPassphrase("perfbench-user-" + std::to_string(options.seed));
  Rng commitRng(options.seed ^ 0xc0ffee);
  Rng mutateRng(options.seed ^ 0x5eed);
  SnapshotGenParams gen;
  gen.seed = options.seed;
  int nextIndex = 0;
  const auto nextSnapshot = [&] {
    if (nextIndex > 0)
      mutateSnapshot(chain->corpus, gen, mutateRng, nextIndex);
    Snapshot s{"snap-" + std::to_string(nextIndex), materialize(chain->corpus)};
    ++nextIndex;
    return s;
  };

  // Per-operation samples of the measured steps.
  std::vector<double> backupMs, restoreMs, gcMs, commitStoreMs;
  double backupBytes = 0, backupSeconds = 0;
  double restoreBytes = 0, restoreSeconds = 0;
  double sessionNs = 0, chunks = 0, duplicateChunks = 0;
  GcStats gcTotal;

  const auto backup = [&](const Snapshot& s, bool measured) {
    TimingStore* timing = chain->timingStore.get();
    const uint64_t storeBefore =
        timing == nullptr ? 0
                          : timing->clocks().record.ns.load() +
                                timing->clocks().syncWait.ns.load();
    const uint64_t start = nowNs();
    Span span(log, "backup");
    BackupOutcome outcome;
    {
      Span sessionSpan(log, "backup.session");
      BackupSession session = client.beginBackup(s.name);
      const ByteView all(s.bytes);
      for (size_t off = 0; off < all.size(); off += kAppendBytes)
        session.append(all.subspan(off, std::min(kAppendBytes, all.size() - off)));
      outcome = session.finish();
      if (measured) sessionNs += static_cast<double>(sessionSpan.elapsedNs());
    }
    std::promise<bool> durable;
    std::future<bool> done = durable.get_future();
    {
      Span commit(log, "backup.commit");
      client.commitBackupAsync(s.name, outcome, userKey, commitRng,
                               [&durable](bool ok) { durable.set_value(ok); });
      result.check(done.get(), "durable commit of " + s.name);
    }
    const double seconds = secondsSince(start);
    ++result.attempted;
    if (!measured) return;
    backupMs.push_back(seconds * 1e3);
    backupSeconds += seconds;
    backupBytes += static_cast<double>(s.bytes.size());
    chunks += static_cast<double>(outcome.chunkCount);
    duplicateChunks += static_cast<double>(outcome.duplicateChunks);
    if (timing != nullptr) {
      const uint64_t storeAfter = timing->clocks().record.ns.load() +
                                  timing->clocks().syncWait.ns.load();
      commitStoreMs.push_back(static_cast<double>(storeAfter - storeBefore) *
                              1e-6);
    }
  };

  const auto restore = [&](const Snapshot& s) {
    const uint64_t start = nowNs();
    uint64_t offset = 0;
    bool same = true;
    {
      Span span(log, "restore");
      RestoreSession session = client.beginRestore(s.name, userKey);
      session.streamTo([&](ByteView piece) {
        if (same && (offset + piece.size() > s.bytes.size() ||
                     std::memcmp(piece.data(), s.bytes.data() + offset,
                                 piece.size()) != 0))
          same = false;
        offset += piece.size();
      });
    }
    const double seconds = secondsSince(start);
    ++result.attempted;
    result.check(same && offset == s.bytes.size(),
                 "restore of " + s.name + " is byte-identical");
    restoreMs.push_back(seconds * 1e3);
    restoreSeconds += seconds;
    restoreBytes += static_cast<double>(offset);
  };

  // Warm-up (not measured): the first snapshots fill the retention window,
  // so every measured backup deduplicates against a full chain.
  std::deque<Snapshot> retained;
  for (size_t i = 0; i < kRetained; ++i) {
    retained.push_back(nextSnapshot());
    backup(retained.back(), false);
  }

  if (chain->timingStore) chain->timingStore->resetClocks();
  if (chain->timingChunker) chain->timingChunker->resetClocks();
  const StoreReadStats readBefore = fileStore.readStats();
  const obs::MetricsSnapshot storeBefore = fileStore.metricsSnapshot();
  const obs::MetricsSnapshot globalBefore =
      obs::MetricsRegistry::global().snapshot();

  const uint64_t measureStart = nowNs();
  int steps = 0;
  while (steps < kMinSteps || secondsSince(measureStart) < options.seconds) {
    retained.push_back(nextSnapshot());
    backup(retained.back(), true);

    // Retention step: delete the oldest snapshot, then collect garbage.
    const Snapshot oldest = std::move(retained.front());
    retained.pop_front();
    {
      const uint64_t start = nowNs();
      Span span(log, "gc");
      result.check(client.deleteBackup(oldest.name),
                   "deleteBackup(" + oldest.name + ")");
      const GcStats gc =
          client.withStore([](BackupStore& store) { return store.collectGarbage(); });
      gcMs.push_back(secondsSince(start) * 1e3);
      ++result.attempted;
      gcTotal.chunksReclaimed += gc.chunksReclaimed;
      gcTotal.chunksRelocated += gc.chunksRelocated;
      gcTotal.bytesReclaimed += gc.bytesReclaimed;
    }

    // Every retained snapshot still restores byte-identically.
    for (const Snapshot& s : retained) restore(s);

    std::vector<std::string> listed = client.listBackups();
    std::vector<std::string> expected;
    for (const Snapshot& s : retained) expected.push_back(s.name);
    std::sort(listed.begin(), listed.end());
    std::sort(expected.begin(), expected.end());
    result.check(listed == expected,
                 "listBackups() after deleting " + oldest.name);
    const StoreCheckReport report = client.withStore(
        [](BackupStore& store) { return store.verify(); });
    result.check(report.ok(), "verify() after deleting " + oldest.name +
                                  (report.ok() ? "" : ": " + report.errors[0]));
    ++steps;
  }

  const StoreReadStats readAfter = fileStore.readStats();
  const obs::MetricsSnapshot storeAfter = fileStore.metricsSnapshot();
  const obs::MetricsSnapshot globalAfter =
      obs::MetricsRegistry::global().snapshot();
  const BackupStoreStats stats = fileStore.stats();

  // MLE maps distinct plaintext chunks one-to-one onto ciphertext chunks,
  // so after GC the store holds exactly the retained snapshots' chunks.
  const size_t expectedChunks = distinctChunks(retained);
  result.check(stats.uniqueChunks == expectedChunks,
               "store unique chunks " + std::to_string(stats.uniqueChunks) +
                   " == distinct chunks of the retained snapshots " +
                   std::to_string(expectedChunks));

  double retainedBytes = 0;
  for (const Snapshot& s : retained)
    retainedBytes += static_cast<double>(s.bytes.size());

  result.e2e("ingest_mb_s", ratio(backupBytes / 1e6, backupSeconds), "MB/s");
  result.e2e("ingest_p50_ms", median(backupMs), "ms");
  result.e2e("read_mb_s", ratio(restoreBytes / 1e6, restoreSeconds), "MB/s");
  result.e2e("read_p50_ms", median(restoreMs), "ms");
  result.e2e("setup_s", median(setupSeconds), "s");
  result.e2e("peak_rss_mb", peakRssMb(), "MB");

  const double loads =
      static_cast<double>(readAfter.containerLoads - readBefore.containerLoads);
  const double hits =
      static_cast<double>(readAfter.cacheHits - readBefore.cacheHits);
  result.layer("client.restore_ns_per_byte",
               ratio(histSumDelta(globalAfter, globalBefore, "restore.stream_us") * 1e3,
                     counterDelta(globalAfter, globalBefore, "restore.bytes_streamed")),
               "ns/B");
  result.layer("storage.container_loads_per_mb", ratio(loads, restoreBytes / 1e6),
               "1/MB");
  result.layer("storage.cache_hit_ratio", ratio(hits, hits + loads), "ratio");
  result.layer("storage.container_write_bytes_per_logical_byte",
               ratio(counterDelta(storeAfter, storeBefore,
                                  "store.container_physical_bytes"),
                     backupBytes),
               "ratio");
  result.layer("storage.gc_relocated_per_reclaimed_chunk",
               ratio(static_cast<double>(gcTotal.chunksRelocated),
                     static_cast<double>(gcTotal.chunksReclaimed)),
               "ratio");
  result.layer("storage.gc_step_p50_ms", median(gcMs), "ms");
  result.layer("storage.stored_bytes_per_logical_byte",
               ratio(static_cast<double>(stats.storedBytes), retainedBytes),
               "ratio");
  result.layer("kvstore.sync_mean_us",
               histMeanDelta(storeAfter, storeBefore, "wal.sync_us"), "us");
  result.layer("kvstore.syncs_per_commit",
               ratio(counterDelta(storeAfter, storeBefore, "wal.syncs"),
                     static_cast<double>(backupMs.size())),
               "ratio");
  result.layer("kvstore.checkpoint_ms",
               histSumDelta(storeAfter, storeBefore, "ckpt.write_us") / 1e3,
               "ms");

  if (TimingStore* timing = chain->timingStore.get()) {
    const TimingStore::Clocks& c = timing->clocks();
    const TimingChunker::Clocks& k = chain->timingChunker->clocks();
    const auto perCall = [](const LayerClock& clock) {
      return ratio(static_cast<double>(clock.ns), static_cast<double>(clock.calls));
    };
    result.layer("chunking.ns_per_byte",
                 ratio(static_cast<double>(k.chunking.ns),
                       static_cast<double>(k.chunking.bytes)),
                 "ns/B");
    const double storeNs = static_cast<double>(c.putNew.ns + c.putDup.ns +
                                               c.hasChunk.ns);
    result.layer("client.backup_self_ns_per_byte",
                 ratio(sessionNs - static_cast<double>(k.chunking.ns) - storeNs,
                       backupBytes),
                 "ns/B");
    result.layer("storage.put_new_ns_per_chunk", perCall(c.putNew), "ns");
    result.layer("storage.put_dup_ns_per_chunk", perCall(c.putDup), "ns");
    result.layer("storage.record_backup_p50_ms", median(commitStoreMs), "ms");
    result.layer("storage.fetch_ns_per_byte",
                 ratio(static_cast<double>(c.getChunks.ns),
                       static_cast<double>(c.getChunks.bytes)),
                 "ns/B");
    result.layer("storage.locate_ns_per_chunk", perCall(c.locate), "ns");
  }

  result.info["snapshot_bytes"] = static_cast<double>(retained.back().bytes.size());
  result.info["corpus_files"] = static_cast<double>(chain->corpus.size());
  result.info["measured_steps"] = steps;
  result.info["backups"] = static_cast<double>(backupMs.size());
  result.info["restores"] = static_cast<double>(restoreMs.size());
  result.info["duplicate_chunk_share"] = ratio(duplicateChunks, chunks);
  result.info["stored_mb"] = static_cast<double>(stats.storedBytes) / 1e6;
  result.info["container_loads_per_restore"] =
      ratio(loads, static_cast<double>(restoreMs.size()));
  result.info["distinct_chunks"] = static_cast<double>(expectedChunks);
  result.info["gc_chunks_reclaimed"] = static_cast<double>(gcTotal.chunksReclaimed);
  result.info["gc_reclaimed_mb"] = static_cast<double>(gcTotal.bytesReclaimed) / 1e6;
  result.info["spans"] = static_cast<double>(log.size());
  if (options.trace && !options.spanPath.empty())
    result.check(log.writeChromeTrace(options.spanPath),
                 "write spans to " + options.spanPath);
  return result;
}

}  // namespace perfbench
