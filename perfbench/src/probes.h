// Probes the benchmark places around the program's public interfaces, so
// every layer is measured from outside without touching src/:
//  - SpanLog / Span: in-memory spans (name, start, end, parent) written out
//    once when the traced run ends;
//  - LayerClock: busy time, call count and bytes of one interface call;
//  - TimingStore: a BackupStore decorator that times each store call;
//  - TimingChunker: a Chunker decorator whose streams time chunking alone
//    (the chunk sink's time is subtracted).
// Untraced runs hand the program its own store and chunker, so the
// decorators cost nothing there.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunking/chunker.h"
#include "report.h"
#include "storage/backup_store.h"

namespace perfbench {

/// Busy time, calls and bytes of one kind of call. Safe to add to from any
/// thread (the restore prefetcher calls getChunks from pool workers).
struct LayerClock {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};

  void add(uint64_t elapsedNs, uint64_t byteCount = 0, uint64_t callCount = 1) {
    ns.fetch_add(elapsedNs, std::memory_order_relaxed);
    calls.fetch_add(callCount, std::memory_order_relaxed);
    bytes.fetch_add(byteCount, std::memory_order_relaxed);
  }
  void reset() {
    ns = 0;
    calls = 0;
    bytes = 0;
  }
};

/// Interval arithmetic on two snapshots of one metrics registry.
inline double counterDelta(const freqdedup::obs::MetricsSnapshot& after,
                           const freqdedup::obs::MetricsSnapshot& before,
                           const std::string& name) {
  return static_cast<double>(after.counter(name)) -
         static_cast<double>(before.counter(name));
}
inline double histSumDelta(const freqdedup::obs::MetricsSnapshot& after,
                           const freqdedup::obs::MetricsSnapshot& before,
                           const std::string& name) {
  return static_cast<double>(after.histogram(name).sum) -
         static_cast<double>(before.histogram(name).sum);
}
/// Mean of the values a histogram recorded between the two snapshots.
inline double histMeanDelta(const freqdedup::obs::MetricsSnapshot& after,
                            const freqdedup::obs::MetricsSnapshot& before,
                            const std::string& name) {
  return ratio(histSumDelta(after, before, name),
               static_cast<double>(after.histogram(name).count) -
                   static_cast<double>(before.histogram(name).count));
}

/// Spans kept in memory; a disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled).
  uint64_t newId() { return enabled_ ? nextId_.fetch_add(1) : 0; }

  /// Records a finished span (no-op when disabled).
  void record(const char* name, uint64_t startNs, uint64_t endNs, uint64_t id,
              uint64_t parent);

  /// Writes every span as a Chrome trace_event array (microseconds since
  /// the first span). Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

  [[nodiscard]] size_t size() const;

 private:
  struct Entry {
    const char* name;
    uint64_t startNs;
    uint64_t endNs;
    uint64_t id;
    uint64_t parent;
    uint32_t thread;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::atomic<uint64_t> nextId_{1};
};

/// RAII span: always measures its duration; records itself (with the
/// enclosing span on this thread as parent) when the log is enabled.
class Span {
 public:
  Span(SpanLog& log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Nanoseconds since the span began.
  [[nodiscard]] uint64_t elapsedNs() const { return nowNs() - start_; }

 private:
  SpanLog& log_;
  const char* name_;
  uint64_t start_;
  uint64_t id_;
  Span* outer_;
};

/// BackupStore decorator timing the store calls the per-layer metrics use;
/// the rest forward untimed (admin calls record a span only).
class TimingStore final : public freqdedup::BackupStore {
 public:
  struct Clocks {
    LayerClock putNew;    // putChunk calls that stored a new chunk
    LayerClock putDup;    // putChunk calls that found a duplicate
    LayerClock hasChunk;
    LayerClock getChunks;  // bytes = ciphertext bytes returned
    LayerClock locate;     // calls = fingerprints located
    LayerClock record;     // recordBackup(Deferred) + putBlob + backupRefs
    LayerClock syncWait;   // syncMetadataAsync call -> durable callback
  };

  TimingStore(freqdedup::BackupStore& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] const Clocks& clocks() const { return clocks_; }
  void resetClocks();

  [[nodiscard]] bool hasChunk(freqdedup::Fp fp) const override;
  bool putChunk(freqdedup::Fp fp, freqdedup::ByteView bytes) override;
  freqdedup::ByteVec getChunk(freqdedup::Fp fp) override;
  std::vector<freqdedup::ByteVec> getChunks(
      std::span<const freqdedup::Fp> fps) override;
  [[nodiscard]] std::vector<std::optional<freqdedup::ChunkPlacement>>
  chunkLocator(std::span<const freqdedup::Fp> fps) const override;
  [[nodiscard]] freqdedup::StoreReadStats readStats() const override {
    return inner_.readStats();
  }
  [[nodiscard]] uint32_t chunkRefCount(freqdedup::Fp fp) const override {
    return inner_.chunkRefCount(fp);
  }
  void putBlob(const std::string& name, freqdedup::ByteView bytes) override;
  std::optional<freqdedup::ByteVec> getBlob(const std::string& name) override {
    return inner_.getBlob(name);
  }
  bool eraseBlob(const std::string& name) override {
    return inner_.eraseBlob(name);
  }
  [[nodiscard]] std::vector<std::string> listBlobs() override {
    return inner_.listBlobs();
  }
  void recordBackup(const std::string& name,
                    std::span<const freqdedup::Fp> refs) override;
  void recordBackupDeferred(const std::string& name,
                            std::span<const freqdedup::Fp> refs) override;
  void syncMetadataAsync(std::function<void(bool ok)> done) override;
  bool releaseBackup(const std::string& name) override;
  [[nodiscard]] std::vector<std::string> listBackups() override {
    return inner_.listBackups();
  }
  std::optional<std::vector<freqdedup::Fp>> backupRefs(
      const std::string& name) override;
  freqdedup::GcStats collectGarbage() override;
  freqdedup::StoreCheckReport verify() override;
  void flush() override { inner_.flush(); }
  [[nodiscard]] freqdedup::BackupStoreStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] freqdedup::obs::MetricsSnapshot metricsSnapshot()
      const override {
    return inner_.metricsSnapshot();
  }
  [[nodiscard]] size_t containerCount() const override {
    return inner_.containerCount();
  }

 private:
  freqdedup::BackupStore& inner_;
  SpanLog& log_;
  mutable Clocks clocks_;
};

/// Chunker decorator: its streams time push()/flush() minus the time the
/// chunk sink (the backup session's fingerprint/encrypt/store stage) takes.
class TimingChunker final : public freqdedup::Chunker {
 public:
  struct Clocks {
    LayerClock chunking;  // self time; bytes = bytes pushed
  };

  explicit TimingChunker(const freqdedup::Chunker& inner) : inner_(inner) {}

  [[nodiscard]] const Clocks& clocks() const { return clocks_; }
  void resetClocks() { clocks_.chunking.reset(); }

  [[nodiscard]] std::vector<freqdedup::ChunkSpan> split(
      freqdedup::ByteView data) const override {
    return inner_.split(data);
  }
  [[nodiscard]] std::unique_ptr<freqdedup::ChunkStream> makeStream(
      freqdedup::ChunkSink sink) const override;

 private:
  const freqdedup::Chunker& inner_;
  mutable Clocks clocks_;
};

}  // namespace perfbench
