// Rabin fingerprinting over GF(2) polynomials.
//
// Implements the rolling hash used by content-defined chunking
// (Section 2.1 of the paper; Rabin 1981, as popularized by LBFS). A window of
// the last `window` bytes is fingerprinted as a polynomial modulo a fixed
// irreducible polynomial; appending a byte and expiring the oldest byte are
// both O(1) via precomputed tables.
//
// The fingerprint is exactly the window's polynomial reduced mod the
// polynomial, so it depends on the last `window` bytes only, and a zero byte
// contributes nothing: append(0, 0) == 0 and expiring a zero byte is a no-op.
// A freshly reset window (all zeros, fingerprint 0) therefore behaves as if
// hashing began at the next byte, which is what lets the CDC scan kernel
// (cdc_chunker.cc) skip the bytes of a chunk that no cut decision can see.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace freqdedup {

/// Degree-53 irreducible polynomial (the LBFS default).
inline constexpr uint64_t kDefaultRabinPoly = 0x3DA3358B4DC173ULL;

/// Degree of a polynomial (index of the highest set bit). Requires p != 0.
int polyDegree(uint64_t p);

/// (x, y) interpreted as polynomials over GF(2): returns x*y mod d.
uint64_t polyMulMod(uint64_t x, uint64_t y, uint64_t d);

/// Reduces the 128-bit polynomial (hi*2^64 + lo) modulo d.
uint64_t polyMod(uint64_t hi, uint64_t lo, uint64_t d);

/// Rolling Rabin fingerprint over a fixed-size byte window.
class RabinWindow {
 public:
  explicit RabinWindow(uint32_t windowSize = 48,
                       uint64_t poly = kDefaultRabinPoly);

  /// Slides one byte into the window (expiring the oldest) and returns the
  /// updated fingerprint.
  uint64_t slide(uint8_t in);

  /// Resets the window to all-zero bytes and fingerprint 0.
  void reset();

  /// Stateless forms of slide() for scan kernels that read the window's
  /// bytes straight from their input instead of this object's ring buffer.
  /// append() shifts `in` into `fp` with nothing expiring (the byte leaving
  /// is zero); roll() also expires `out`, the byte that entered
  /// windowSize() appends earlier. slide(in) == roll(fp, oldest, in).
  [[nodiscard]] uint64_t append(uint64_t fp, uint8_t in) const {
    return ((fp << 8) | in) ^ appendTable_[fp >> shift_];
  }
  [[nodiscard]] uint64_t roll(uint64_t fp, uint8_t out, uint8_t in) const {
    return append(fp ^ expireTable_[out], in);
  }

  [[nodiscard]] uint64_t fingerprint() const { return fp_; }
  [[nodiscard]] uint32_t windowSize() const {
    return static_cast<uint32_t>(buf_.size());
  }

 private:
  uint64_t poly_;
  int shift_;
  uint64_t appendTable_[256];
  uint64_t expireTable_[256];
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  uint64_t fp_ = 0;
};

}  // namespace freqdedup
