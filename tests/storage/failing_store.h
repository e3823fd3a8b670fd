// Fault-injection BackupStore decorator for restore-path tests.
//
// Wraps any BackupStore and forwards every operation; the read path
// (getChunk / getChunks) can be made to fail, corrupt or delay the Nth
// chunk read, counted 1-based across both entry points, or to fail every
// read of one fingerprint. All injection state
// is atomic, so the wrapper is as thread-safe as the store it decorates —
// concurrent restore sessions can run through it, and the concurrency
// high-water mark records how many chunk-fetching calls overlapped (the
// lock-scope regression tests assert it exceeds 1).
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "storage/backup_store.h"

namespace freqdedup {

class FailingStore : public BackupStore {
 public:
  explicit FailingStore(BackupStore& inner) : inner_(&inner) {}

  // --- Injection knobs (0 disarms; reads are counted 1-based) ---

  /// The Nth chunk read throws std::runtime_error("injected read failure").
  void failReadAt(uint64_t n) { failAt_.store(n); }

  /// Every read of `cipherFp` throws std::runtime_error("injected read
  /// failure"), whichever read it is — unlike failReadAt, independent of the
  /// order in which concurrent prefetches reach the store.
  void failReadOf(Fp cipherFp) {
    failFp_.store(cipherFp);
    failFpArmed_.store(true);
  }

  /// The Nth chunk read returns its bytes with one bit flipped.
  void corruptReadAt(uint64_t n) { corruptAt_.store(n); }

  /// Every getChunk/getChunks call sleeps this long (simulated I/O latency).
  void delayReads(std::chrono::milliseconds d) { delayMs_.store(d.count()); }

  void resetInjection() {
    failAt_.store(0);
    failFpArmed_.store(false);
    corruptAt_.store(0);
    delayMs_.store(0);
  }

  /// Chunk reads served (or attempted) so far.
  [[nodiscard]] uint64_t chunkReadCount() const { return reads_.load(); }

  /// Highest number of simultaneously in-flight getChunk/getChunks calls.
  [[nodiscard]] uint64_t maxConcurrentReads() const {
    return maxConcurrent_.load();
  }

  // --- BackupStore: read path with injection ---

  ByteVec getChunk(Fp cipherFp) override {
    const ReadScope scope(*this);
    maybeDelay();
    ByteVec bytes = inner_->getChunk(cipherFp);
    injectInto(cipherFp, bytes);
    return bytes;
  }

  std::vector<ByteVec> getChunks(std::span<const Fp> cipherFps) override {
    const ReadScope scope(*this);
    maybeDelay();
    std::vector<ByteVec> batch = inner_->getChunks(cipherFps);
    for (size_t i = 0; i < batch.size(); ++i)
      injectInto(cipherFps[i], batch[i]);
    return batch;
  }

  // --- BackupStore: everything else forwards verbatim ---

  [[nodiscard]] bool hasChunk(Fp cipherFp) const override {
    return inner_->hasChunk(cipherFp);
  }
  bool putChunk(Fp cipherFp, ByteView bytes) override {
    return inner_->putChunk(cipherFp, bytes);
  }
  [[nodiscard]] std::vector<std::optional<ChunkPlacement>> chunkLocator(
      std::span<const Fp> cipherFps) const override {
    return inner_->chunkLocator(cipherFps);
  }
  [[nodiscard]] uint32_t chunkRefCount(Fp cipherFp) const override {
    return inner_->chunkRefCount(cipherFp);
  }
  void putBlob(const std::string& name, ByteView bytes) override {
    inner_->putBlob(name, bytes);
  }
  std::optional<ByteVec> getBlob(const std::string& name) override {
    return inner_->getBlob(name);
  }
  bool eraseBlob(const std::string& name) override {
    return inner_->eraseBlob(name);
  }
  [[nodiscard]] std::vector<std::string> listBlobs() override {
    return inner_->listBlobs();
  }
  void recordBackup(const std::string& name,
                    std::span<const Fp> chunkRefs) override {
    inner_->recordBackup(name, chunkRefs);
  }
  bool releaseBackup(const std::string& name) override {
    return inner_->releaseBackup(name);
  }
  [[nodiscard]] std::vector<std::string> listBackups() override {
    return inner_->listBackups();
  }
  std::optional<std::vector<Fp>> backupRefs(const std::string& name) override {
    return inner_->backupRefs(name);
  }
  GcStats collectGarbage() override { return inner_->collectGarbage(); }
  StoreCheckReport verify() override { return inner_->verify(); }
  void flush() override { inner_->flush(); }
  [[nodiscard]] BackupStoreStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] StoreReadStats readStats() const override {
    return inner_->readStats();
  }
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const override {
    return inner_->metricsSnapshot();
  }
  [[nodiscard]] size_t containerCount() const override {
    return inner_->containerCount();
  }

 private:
  /// RAII in-flight counter feeding the concurrency high-water mark.
  struct ReadScope {
    explicit ReadScope(const FailingStore& store) : store_(store) {
      const uint64_t now = ++store_.concurrent_;
      uint64_t seen = store_.maxConcurrent_.load();
      while (now > seen &&
             !store_.maxConcurrent_.compare_exchange_weak(seen, now)) {
      }
    }
    ~ReadScope() { --store_.concurrent_; }
    const FailingStore& store_;
  };

  void maybeDelay() const {
    const int64_t ms = delayMs_.load();
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  /// Applies the per-chunk injections to one served chunk.
  void injectInto(Fp cipherFp, ByteVec& bytes) {
    const uint64_t n = ++reads_;
    if (n == failAt_.load() ||
        (failFpArmed_.load() && cipherFp == failFp_.load()))
      throw std::runtime_error("injected read failure");
    if (n == corruptAt_.load() && !bytes.empty()) bytes[bytes.size() / 2] ^= 1;
  }

  BackupStore* inner_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> failAt_{0};
  std::atomic<Fp> failFp_{0};
  std::atomic<bool> failFpArmed_{false};
  std::atomic<uint64_t> corruptAt_{0};
  std::atomic<int64_t> delayMs_{0};
  mutable std::atomic<uint64_t> concurrent_{0};
  mutable std::atomic<uint64_t> maxConcurrent_{0};
};

}  // namespace freqdedup
