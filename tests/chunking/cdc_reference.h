// FROZEN REFERENCE — DO NOT EDIT.
//
// A verbatim copy of the ring-buffer Rabin CDC loop that defined every chunk
// boundary this project has produced: RabinWindow::slide() with its
// `%`-indexed ring buffer, and CdcChunker::split()'s per-byte loop that
// slides every byte of a chunk through a window reset at the chunk start.
// Recipes, key recipes and container bytes all follow from these
// boundaries, so the production scan kernel (chunking/cdc_chunker.cc) must
// reproduce them exactly; tests/chunking/cdc_reference_test.cc pins it
// against this copy. Only the GF(2) helpers polyMod/polyMulMod/polyDegree
// are shared with production code, and rabin_test.cc pins those.
//
// If this file ever needs a change, the boundaries have changed: that is a
// new chunker, not an edit here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chunking/cdc_chunker.h"
#include "chunking/rabin.h"
#include "common/bytes.h"

namespace freqdedup::reference {

class RingRabinWindow {
 public:
  explicit RingRabinWindow(uint32_t windowSize, uint64_t poly)
      : poly_(poly), buf_(windowSize, 0) {
    const int k = polyDegree(poly_);
    shift_ = k - 8;
    const uint64_t t1 = polyMod(0, 1ULL << k, poly_);
    for (uint64_t j = 0; j < 256; ++j) {
      appendTable_[j] = polyMulMod(j, t1, poly_) | (j << k);
    }
    uint64_t sizeshift = 1;
    for (uint32_t i = 1; i < windowSize; ++i) sizeshift = append8(sizeshift, 0);
    for (uint64_t b = 0; b < 256; ++b) {
      expireTable_[b] = polyMulMod(b, sizeshift, poly_);
    }
  }

  uint64_t slide(uint8_t in) {
    const uint8_t out = buf_[pos_];
    buf_[pos_] = in;
    pos_ = (pos_ + 1) % buf_.size();
    fp_ = append8(fp_ ^ expireTable_[out], in);
    return fp_;
  }

  void reset() {
    std::fill(buf_.begin(), buf_.end(), 0);
    pos_ = 0;
    fp_ = 0;
  }

 private:
  uint64_t append8(uint64_t fp, uint8_t b) const {
    return ((fp << 8) | b) ^ appendTable_[fp >> shift_];
  }

  uint64_t poly_;
  int shift_;
  uint64_t appendTable_[256];
  uint64_t expireTable_[256];
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  uint64_t fp_ = 0;
};

inline std::vector<ChunkSpan> cdcSplit(const CdcParams& params,
                                       ByteView data) {
  std::vector<ChunkSpan> chunks;
  if (data.empty()) return chunks;
  const uint64_t mask = params.avgSize - 1;

  RingRabinWindow window(params.windowSize, params.poly);
  size_t start = 0;
  size_t pos = 0;
  while (pos < data.size()) {
    const uint64_t fp = window.slide(data[pos]);
    ++pos;
    const size_t len = pos - start;
    const bool atPattern = len >= params.minSize && (fp & mask) == mask;
    const bool atMax = len >= params.maxSize;
    if (atPattern || atMax) {
      chunks.push_back({start, static_cast<uint32_t>(len)});
      start = pos;
      window.reset();
    }
  }
  if (start < data.size()) {
    chunks.push_back({start, static_cast<uint32_t>(data.size() - start)});
  }
  return chunks;
}

}  // namespace freqdedup::reference
