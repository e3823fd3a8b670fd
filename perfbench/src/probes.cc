#include "probes.h"

#include <cstdio>
#include <functional>

namespace perfbench {

using freqdedup::ByteVec;
using freqdedup::ByteView;
using freqdedup::Fp;

namespace {

thread_local Span* tlCurrentSpan = nullptr;

uint32_t threadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

void SpanLog::record(const char* name, uint64_t startNs, uint64_t endNs,
                     uint64_t id, uint64_t parent) {
  if (!enabled_) return;
  const uint32_t thread = threadIndex();
  std::lock_guard lock(mu_);
  entries_.push_back({name, startNs, endNs, id, parent, thread});
}

size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
  std::lock_guard lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Entry& e : entries_) origin = std::min(origin, e.startNs);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}%s\n",
                 e.name, e.thread, static_cast<double>(e.startNs - origin) / 1e3,
                 static_cast<double>(e.endNs - e.startNs) / 1e3,
                 static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent),
                 i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Span::Span(SpanLog& log, const char* name)
    : log_(log),
      name_(name),
      start_(nowNs()),
      id_(log.newId()),
      outer_(tlCurrentSpan) {
  tlCurrentSpan = this;
}

Span::~Span() {
  tlCurrentSpan = outer_;
  log_.record(name_, start_, nowNs(), id_,
              outer_ != nullptr ? outer_->id_ : 0);
}

// --- TimingStore ---

void TimingStore::resetClocks() {
  for (LayerClock* clock :
       {&clocks_.putNew, &clocks_.putDup, &clocks_.hasChunk, &clocks_.getChunks,
        &clocks_.locate, &clocks_.record, &clocks_.syncWait})
    clock->reset();
}

bool TimingStore::hasChunk(Fp fp) const {
  const uint64_t start = nowNs();
  const bool has = inner_.hasChunk(fp);
  clocks_.hasChunk.add(nowNs() - start);
  return has;
}

bool TimingStore::putChunk(Fp fp, ByteView bytes) {
  const uint64_t start = nowNs();
  const bool isNew = inner_.putChunk(fp, bytes);
  (isNew ? clocks_.putNew : clocks_.putDup).add(nowNs() - start, bytes.size());
  return isNew;
}

ByteVec TimingStore::getChunk(Fp fp) {
  const uint64_t start = nowNs();
  ByteVec bytes = inner_.getChunk(fp);
  clocks_.getChunks.add(nowNs() - start, bytes.size());
  return bytes;
}

std::vector<ByteVec> TimingStore::getChunks(std::span<const Fp> fps) {
  Span span(log_, "store.getChunks");
  std::vector<ByteVec> chunks = inner_.getChunks(fps);
  uint64_t bytes = 0;
  for (const ByteVec& c : chunks) bytes += c.size();
  clocks_.getChunks.add(span.elapsedNs(), bytes);
  return chunks;
}

std::vector<std::optional<freqdedup::ChunkPlacement>> TimingStore::chunkLocator(
    std::span<const Fp> fps) const {
  Span span(log_, "store.chunkLocator");
  auto placements = inner_.chunkLocator(fps);
  clocks_.locate.add(span.elapsedNs(), 0, fps.size());
  return placements;
}

void TimingStore::putBlob(const std::string& name, ByteView bytes) {
  Span span(log_, "store.putBlob");
  inner_.putBlob(name, bytes);
  clocks_.record.add(span.elapsedNs(), bytes.size());
}

void TimingStore::recordBackup(const std::string& name,
                               std::span<const Fp> refs) {
  Span span(log_, "store.recordBackup");
  inner_.recordBackup(name, refs);
  clocks_.record.add(span.elapsedNs());
}

void TimingStore::recordBackupDeferred(const std::string& name,
                                       std::span<const Fp> refs) {
  Span span(log_, "store.recordBackupDeferred");
  inner_.recordBackupDeferred(name, refs);
  clocks_.record.add(span.elapsedNs());
}

void TimingStore::syncMetadataAsync(std::function<void(bool ok)> done) {
  const uint64_t start = nowNs();
  inner_.syncMetadataAsync(
      [this, start, done = std::move(done)](bool ok) {
        const uint64_t end = nowNs();
        clocks_.syncWait.add(end - start);
        log_.record("store.syncWait", start, end, log_.newId(), 0);
        done(ok);
      });
}

bool TimingStore::releaseBackup(const std::string& name) {
  Span span(log_, "store.releaseBackup");
  return inner_.releaseBackup(name);
}

std::optional<std::vector<Fp>> TimingStore::backupRefs(
    const std::string& name) {
  const uint64_t start = nowNs();
  auto refs = inner_.backupRefs(name);
  clocks_.record.add(nowNs() - start);
  return refs;
}

freqdedup::GcStats TimingStore::collectGarbage() {
  Span span(log_, "store.collectGarbage");
  return inner_.collectGarbage();
}

freqdedup::StoreCheckReport TimingStore::verify() {
  Span span(log_, "store.verify");
  return inner_.verify();
}

// --- TimingChunker ---

namespace {

class TimingChunkStream final : public freqdedup::ChunkStream {
 public:
  TimingChunkStream(const freqdedup::Chunker& inner, freqdedup::ChunkSink sink,
                    TimingChunker::Clocks& clocks)
      : sink_(std::move(sink)), clocks_(clocks) {
    inner_ = inner.makeStream([this](ByteView chunk) {
      const uint64_t start = nowNs();
      sink_(chunk);
      sinkNs_ += nowNs() - start;
    });
  }

  TimingChunkStream(const TimingChunkStream&) = delete;
  TimingChunkStream& operator=(const TimingChunkStream&) = delete;

  void push(ByteView data) override {
    timeCall(data.size(), [&] { inner_->push(data); });
  }

  void flush() override {
    timeCall(0, [&] { inner_->flush(); });
  }

 private:
  template <typename Fn>
  void timeCall(uint64_t bytes, Fn&& fn) {
    sinkNs_ = 0;
    const uint64_t start = nowNs();
    fn();
    const uint64_t total = nowNs() - start;
    clocks_.chunking.add(total - sinkNs_, bytes);
  }

  freqdedup::ChunkSink sink_;
  TimingChunker::Clocks& clocks_;
  std::unique_ptr<freqdedup::ChunkStream> inner_;
  uint64_t sinkNs_ = 0;
};

}  // namespace

std::unique_ptr<freqdedup::ChunkStream> TimingChunker::makeStream(
    freqdedup::ChunkSink sink) const {
  return std::make_unique<TimingChunkStream>(inner_, std::move(sink), clocks_);
}

}  // namespace perfbench
