#include "chunking/cdc_chunker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace freqdedup {

namespace {

const CdcParams& validated(const CdcParams& params) {
  if (params.windowSize == 0)
    throw std::invalid_argument("CdcParams: windowSize must be > 0");
  if (params.avgSize == 0 || !std::has_single_bit(params.avgSize))
    throw std::invalid_argument(
        "CdcParams: avgSize must be a non-zero power of two");
  if (params.minSize < params.windowSize)
    throw std::invalid_argument(
        "CdcParams: minSize must cover the Rabin window");
  if (params.minSize > params.avgSize || params.avgSize > params.maxSize)
    throw std::invalid_argument(
        "CdcParams: require minSize <= avgSize <= maxSize");
  return params;
}

/// Incremental CDC: the scan state and the current chunk's bytes carry
/// across push() calls, so boundaries land exactly where split() puts them
/// regardless of append granularity.
class CdcChunkStream final : public ChunkStream {
 public:
  CdcChunkStream(const CdcBoundaryScanner& scanner, uint32_t maxSize,
                 ChunkSink sink)
      : scanner_(scanner), sink_(std::move(sink)) {
    pending_.reserve(maxSize);
  }

  void push(ByteView data) override {
    // Boundary detection scans the caller's buffer directly; only the
    // carry-over partial chunk at the end of the push is copied. A chunk
    // that completes within one push and has no carried prefix is emitted
    // as a view straight into `data` (zero-copy).
    while (!data.empty()) {
      const size_t cut = scanner_.findCut(pending_, data, fp_);
      if (cut == 0) {
        appendBytes(pending_, data);
        return;
      }
      if (pending_.empty()) {
        sink_(data.first(cut));
      } else {
        appendBytes(pending_, data.first(cut));
        sink_(ByteView(pending_.data(), pending_.size()));
        pending_.clear();
      }
      data = data.subspan(cut);
    }
  }

  void flush() override {
    if (!pending_.empty()) {
      sink_(ByteView(pending_.data(), pending_.size()));
      pending_.clear();
    }
    fp_ = 0;  // a fresh object starts from a clean window
  }

 private:
  CdcBoundaryScanner scanner_;
  ChunkSink sink_;
  ByteVec pending_;  // bytes of the chunk under construction (< maxSize)
  uint64_t fp_ = 0;  // scan state of the chunk under construction
};

}  // namespace

CdcBoundaryScanner::CdcBoundaryScanner(const CdcParams& params)
    : minSize_(params.minSize),
      maxSize_(params.maxSize),
      windowSize_(params.windowSize),
      mask_(params.avgSize - 1),
      rabin_(params.windowSize, params.poly) {}

size_t CdcBoundaryScanner::findCut(ByteView prev, ByteView data,
                                   uint64_t& fp) const {
  // Offsets are within the chunk; chunk offset o is data[o - carried]. A
  // cut follows offset o when o + 1 >= minSize and the fingerprint matches
  // the pattern, or when o + 1 == maxSize.
  const size_t carried = prev.size();
  const size_t end = std::min(carried + data.size(), maxSize_);
  const size_t w = windowSize_;
  uint64_t h = fp;
  size_t o = std::max(carried, minSize_ - w);  // the skipped prefix

  // Warm-up, [minSize - w, minSize): the bytes leaving the reset window are
  // zeros, so nothing expires.
  for (const size_t stop = std::min(end, minSize_); o < stop; ++o)
    h = rabin_.append(h, data[o - carried]);
  if (o < minSize_) {
    fp = h;
    return 0;
  }
  if (carried < minSize_ &&
      ((h & mask_) == mask_ || minSize_ == maxSize_)) {  // first cut test
    fp = 0;
    return minSize_ - carried;
  }

  // The first w bytes after a push boundary expire bytes of `prev`.
  for (const size_t stop = std::min(end, carried + w); o < stop; ++o) {
    h = rabin_.roll(h, prev[o - w], data[o - carried]);
    if ((h & mask_) == mask_) {
      fp = 0;
      return o + 1 - carried;
    }
  }
  // The hot loop: both bytes come from `data`.
  const uint8_t* in = data.data();
  for (size_t i = o - carried, stop = end - carried; i < stop; ++i) {
    h = rabin_.roll(h, in[i - w], in[i]);
    if ((h & mask_) == mask_) {
      fp = 0;
      return i + 1;
    }
  }
  if (end == maxSize_) {
    fp = 0;
    return end - carried;
  }
  fp = h;
  return 0;
}

CdcChunker::CdcChunker(const CdcParams& params)
    : params_(validated(params)), scanner_(params_) {}

std::vector<ChunkSpan> CdcChunker::split(ByteView data) const {
  std::vector<ChunkSpan> chunks;
  if (data.empty()) return chunks;
  chunks.reserve(data.size() / params_.avgSize + 1);

  size_t start = 0;
  while (start < data.size()) {
    uint64_t fp = 0;
    const size_t len = scanner_.findCut({}, data.subspan(start), fp);
    if (len == 0) break;
    chunks.push_back({start, static_cast<uint32_t>(len)});
    start += len;
  }
  if (start < data.size()) {
    chunks.push_back({start, static_cast<uint32_t>(data.size() - start)});
  }
  return chunks;
}

std::unique_ptr<ChunkStream> CdcChunker::makeStream(ChunkSink sink) const {
  return std::make_unique<CdcChunkStream>(scanner_, params_.maxSize,
                                          std::move(sink));
}

}  // namespace freqdedup
