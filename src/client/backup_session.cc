#include "client/backup_session.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "client/dedup_client.h"
#include "common/check.h"
#include "crypto/mle.h"
#include "obs/trace.h"
#include "pipeline/thread_pool.h"

namespace freqdedup {

namespace {

/// Process-wide backup/chunking metrics, resolved once. Sessions are
/// transient, so their counters live in the global registry.
struct BackupMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& sessionsOpened = reg.counter("backup.sessions_opened");
  obs::Counter& bytesAppended = reg.counter("backup.bytes_appended");
  obs::Counter& chunksNew = reg.counter("backup.chunks_new");
  obs::Counter& chunksDuplicate = reg.counter("backup.chunks_duplicate");
  obs::Histogram& appendUs = reg.histogram("backup.append_us");
  obs::Histogram& finishUs = reg.histogram("backup.finish_us");
  obs::Counter& chunksProduced = reg.counter("chunk.chunks_produced");
  obs::Counter& chunkBytes = reg.counter("chunk.bytes_total");
  obs::Histogram& chunkSizeBytes = reg.histogram("chunk.size_bytes");
  obs::Counter& segmentsClosed = reg.counter("chunk.segments_closed");

  static BackupMetrics& get() {
    static BackupMetrics m;
    return m;
  }
};

/// Chunks per encrypt window on the parallel MLE path: at most two windows
/// (one encrypting, one filling) are buffered, bounding extra memory to
/// O(window * chunk size) regardless of object size. Matches the historic
/// one-shot window so parallel grouping is identical (the outcome does not
/// depend on it — encryption is pure and the store order is fixed).
constexpr size_t kEncryptWindowChunks = 1024;

/// One chunk after the (parallelizable) encrypt stage.
struct EncryptedChunk {
  AesKey key;
  ByteVec cipher;
  Fp cipherFp = 0;
  Fp plainFp = 0;
};

}  // namespace

/// One full window of the parallel MLE path and its encryption, running on
/// the pool. `range` is declared last so it is destroyed (and waited for)
/// before the buffers its blocks write into.
struct BackupSession::MleBatch {
  std::vector<ByteVec> plain;
  std::vector<EncryptedChunk> encrypted;
  PendingRange range;
};

std::vector<size_t> scrambleOrder(size_t recordCount,
                                  std::span<const Segment> segments,
                                  Rng& rng) {
  std::vector<size_t> order;
  order.reserve(recordCount);
  for (const Segment& seg : segments) {
    FDD_CHECK(seg.end <= recordCount);
    std::deque<size_t> scrambled;
    for (size_t i = seg.begin; i < seg.end; ++i) {
      // Algorithm 5, lines 7-12: odd random number -> front, else back.
      if (rng.next() & 1) {
        scrambled.push_front(i);
      } else {
        scrambled.push_back(i);
      }
    }
    order.insert(order.end(), scrambled.begin(), scrambled.end());
  }
  FDD_CHECK_MSG(order.size() == recordCount,
                "segments must cover all records");
  return order;
}

BackupSession::BackupSession(DedupClient& client, std::string name)
    : client_(&client),
      name_(std::move(name)),
      scrambleRng_(client.options_.scrambleSeed) {
  BackupMetrics::get().sessionsOpened.add();
  stream_ =
      client.chunker_->makeStream([this](ByteView chunk) { onChunk(chunk); });
  if (client.options_.scheme != EncryptionScheme::kMle) {
    segmenter_ = std::make_unique<StreamSegmenter>(
        client.options_.segmentParams,
        [this](const Segment& seg) { onSegment(seg); });
  }
}

BackupSession::~BackupSession() = default;

void BackupSession::append(ByteView data) {
  FDD_CHECK_MSG(!finished_, "append() on a finished BackupSession");
  BackupMetrics& m = BackupMetrics::get();
  obs::ObsSpan span(&m.appendUs, "backup.append", "backup");
  m.bytesAppended.add(data.size());
  bytesAppended_ += data.size();
  stream_->push(data);
}

BackupOutcome BackupSession::finish() {
  FDD_CHECK_MSG(!finished_, "finish() called twice on a BackupSession");
  obs::ObsSpan span(&BackupMetrics::get().finishUs, "backup.finish", "backup");
  finished_ = true;
  stream_->flush();  // emits the trailing partial chunk, if any
  if (segmenter_) {
    segmenter_->finish();  // closes the open segment
    FDD_CHECK_MSG(segChunks_.empty(), "segment buffer not drained");
  } else {
    if (!mleWindow_.empty()) submitMleWindow();
    storeMleInFlight();
  }
  outcome_.fileRecipe.fileName = name_;
  outcome_.fileRecipe.fileSize = bytesAppended_;
  outcome_.chunkCount = outcome_.fileRecipe.entries.size();
  return std::move(outcome_);
}

void BackupSession::storeChunk(Fp cipherFp, ByteView cipher) {
  bool isNew = false;
  {
    std::lock_guard lock(client_->storeMu_);
    isNew = client_->store_->putChunk(cipherFp, cipher);
  }
  BackupMetrics& m = BackupMetrics::get();
  if (isNew) {
    ++outcome_.newChunks;
    outcome_.newChunkFps.push_back(cipherFp);
    m.chunksNew.add();
  } else {
    ++outcome_.duplicateChunks;
    outcome_.duplicateChunkFps.push_back(cipherFp);
    m.chunksDuplicate.add();
  }
}

void BackupSession::onChunk(ByteView chunk) {
  BackupMetrics& m = BackupMetrics::get();
  m.chunksProduced.add();
  m.chunkBytes.add(chunk.size());
  m.chunkSizeBytes.record(chunk.size());
  if (segmenter_) {
    // MinHash path: buffer the chunk, then let the segmenter decide whether
    // this record closes a segment (possibly before admitting it).
    const ChunkRecord record{fpOfContent(chunk),
                             static_cast<uint32_t>(chunk.size())};
    segChunks_.emplace_back(chunk.begin(), chunk.end());
    segRecords_.push_back(record);
    segmenter_->push(record);
    return;
  }

  // MLE path, parallel: fill the encrypt window. Gated on the backup
  // options, not on pool existence — the pool is shared with the restore
  // stages and may exist solely for them, while this backup is configured
  // serial (one ciphertext in flight, no window buffering).
  if (client_->options_.parallelism > 1) {
    mleWindow_.emplace_back(chunk.begin(), chunk.end());
    if (mleWindow_.size() == kEncryptWindowChunks) submitMleWindow();
    return;
  }

  // MLE path, serial: one ciphertext in flight at a time (bounded memory).
  const Fp plainFp = fpOfContent(chunk);
  const AesKey key = client_->keyManager_->deriveChunkKey(plainFp);
  const ByteVec cipher = MleScheme::encryptWithKey(key, chunk);
  const Fp cipherFp = fpOfContent(cipher);
  storeChunk(cipherFp, cipher);
  outcome_.fileRecipe.entries.push_back(
      {cipherFp, static_cast<uint32_t>(cipher.size()), plainFp});
  outcome_.keyRecipe.keys.push_back(key);
}

void BackupSession::submitMleWindow() {
  storeMleInFlight();
  auto batch = std::make_unique<MleBatch>();
  batch->plain = std::move(mleWindow_);
  mleWindow_.clear();
  batch->encrypted.resize(batch->plain.size());
  const KeyManager* keyManager = client_->keyManager_;
  batch->range = startParallelForShared(
      *client_->pool_, batch->plain.size(),
      [b = batch.get(), keyManager](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          const Fp plainFp = fpOfContent(b->plain[k]);
          const AesKey key = keyManager->deriveChunkKey(plainFp);
          ByteVec cipher = MleScheme::encryptWithKey(key, b->plain[k]);
          const Fp cipherFp = fpOfContent(cipher);
          b->encrypted[k] = {key, std::move(cipher), cipherFp, plainFp};
        }
      });
  mleInFlight_ = std::move(batch);
}

void BackupSession::storeMleInFlight() {
  if (!mleInFlight_) return;
  const std::unique_ptr<MleBatch> batch = std::move(mleInFlight_);
  batch->range.wait();  // rethrows a worker's exception
  for (const EncryptedChunk& e : batch->encrypted) {
    storeChunk(e.cipherFp, e.cipher);
    outcome_.fileRecipe.entries.push_back(
        {e.cipherFp, static_cast<uint32_t>(e.cipher.size()), e.plainFp});
    outcome_.keyRecipe.keys.push_back(e.key);
  }
}

void BackupSession::onSegment(const Segment& seg) {
  FDD_CHECK_MSG(seg.begin == segBase_, "segments must close in order");
  BackupMetrics::get().segmentsClosed.add();
  const size_t count = seg.count();
  FDD_CHECK_MSG(count <= segChunks_.size(), "segment exceeds buffered chunks");
  const std::span<const ChunkRecord> records(segRecords_.data(), count);

  // Per-segment key from the segment's minimum fingerprint (Algorithm 4).
  const Segment local{0, count};
  const AesKey segKey = client_->keyManager_->deriveSegmentKey(
      segmentMinFingerprint(records, local));

  // Scrambling permutes the upload/storage order within the segment; the
  // recipe keeps the original order so restore is unaffected (Section 6.2).
  // Segments close strictly in order, so the scramble Rng consumes draws in
  // exactly the order the one-shot scrambleOrder over all segments does.
  std::vector<size_t> order;
  if (client_->options_.scheme == EncryptionScheme::kMinHashScrambled) {
    order = scrambleOrder(count, std::span(&local, 1), scrambleRng_);
  } else {
    order.resize(count);
    std::iota(order.begin(), order.end(), size_t{0});
  }

  std::vector<RecipeEntry> entryOf(count);  // indexed by original position
  // Same gating as the MLE path: a shared pool may exist for restore only.
  if (client_->options_.parallelism <= 1) {
    // Serial: encrypt in upload order, one ciphertext in flight.
    for (const size_t i : order) {
      const ByteVec cipher = MleScheme::encryptWithKey(segKey, segChunks_[i]);
      const Fp cipherFp = fpOfContent(cipher);
      storeChunk(cipherFp, cipher);
      entryOf[i] = {cipherFp, static_cast<uint32_t>(cipher.size()),
                    records[i].fp};
    }
  } else {
    // Parallel: encrypt the segment's chunks concurrently, then store them
    // serially in the (possibly scrambled) upload order, so parallelism
    // never changes what the server observes.
    std::vector<EncryptedChunk> window(count);
    parallelForShared(*client_->pool_, count, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        const size_t i = order[k];
        ByteVec cipher = MleScheme::encryptWithKey(segKey, segChunks_[i]);
        const Fp cipherFp = fpOfContent(cipher);
        window[k] = {segKey, std::move(cipher), cipherFp};
      }
    });
    for (size_t k = 0; k < count; ++k) {
      const size_t i = order[k];
      storeChunk(window[k].cipherFp, window[k].cipher);
      entryOf[i] = {window[k].cipherFp,
                    static_cast<uint32_t>(window[k].cipher.size()),
                    records[i].fp};
    }
  }

  // Recipes stay in original order; all chunks of a segment share its key.
  outcome_.fileRecipe.entries.insert(outcome_.fileRecipe.entries.end(),
                                     entryOf.begin(), entryOf.end());
  outcome_.keyRecipe.keys.insert(outcome_.keyRecipe.keys.end(), count, segKey);

  // Drop the consumed prefix; an overflow-closed segment leaves the record
  // that triggered the close as the start of the next segment.
  segChunks_.erase(segChunks_.begin(),
                   segChunks_.begin() + static_cast<ptrdiff_t>(count));
  segRecords_.erase(segRecords_.begin(),
                    segRecords_.begin() + static_cast<ptrdiff_t>(count));
  segBase_ = seg.end;
}

}  // namespace freqdedup
