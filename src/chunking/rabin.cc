#include "chunking/rabin.h"

#include <bit>

#include "common/check.h"

namespace freqdedup {

int polyDegree(uint64_t p) {
  FDD_CHECK(p != 0);
  return 63 - std::countl_zero(p);
}

uint64_t polyMod(uint64_t hi, uint64_t lo, uint64_t d) {
  FDD_CHECK(d != 0);
  const int k = polyDegree(d);
  // Cancel set bits from the top of the 128-bit value downwards: a set bit at
  // combined position p (>= k) is cleared by xoring d shifted left by p - k.
  for (int i = 63; i >= 0; --i) {
    if (hi & (1ULL << i)) {
      const int s = 64 + i - k;  // shift of d within the 128-bit value
      if (s >= 64) {
        hi ^= d << (s - 64);
      } else {
        hi ^= d >> (64 - s);
        lo ^= d << s;
      }
    }
  }
  for (int i = 63; i >= k; --i) {
    if (lo & (1ULL << i)) lo ^= d << (i - k);
  }
  return lo;
}

uint64_t polyMulMod(uint64_t x, uint64_t y, uint64_t d) {
  // Schoolbook carry-less multiply into a 128-bit accumulator.
  uint64_t hi = 0;
  uint64_t lo = 0;
  for (int i = 0; i < 64; ++i) {
    if (y & (1ULL << i)) {
      lo ^= x << i;
      if (i > 0) hi ^= x >> (64 - i);
    }
  }
  return polyMod(hi, lo, d);
}

RabinWindow::RabinWindow(uint32_t windowSize, uint64_t poly)
    : poly_(poly), buf_(windowSize, 0) {
  FDD_CHECK_MSG(windowSize >= 2, "window too small");
  const int k = polyDegree(poly_);
  FDD_CHECK_MSG(k > 8, "polynomial degree must exceed 8");
  shift_ = k - 8;
  // appendTable_[j] folds the top byte j (about to overflow past degree k)
  // back into the fingerprint: T[j] = (j << k) mod poly, with the raw shifted
  // bits OR-ed in so append() can use a single xor.
  const uint64_t t1 = polyMod(0, 1ULL << k, poly_);
  for (uint64_t j = 0; j < 256; ++j) {
    appendTable_[j] = polyMulMod(j, t1, poly_) | (j << k);
  }
  // expireTable_[b] = b * x^(8*(windowSize-1)) mod poly — the contribution
  // the oldest byte still has in the fingerprint at the moment it leaves the
  // window (it entered windowSize-1 appends ago).
  uint64_t sizeshift = 1;
  for (uint32_t i = 1; i < windowSize; ++i) sizeshift = append(sizeshift, 0);
  for (uint64_t b = 0; b < 256; ++b) {
    expireTable_[b] = polyMulMod(b, sizeshift, poly_);
  }
}

uint64_t RabinWindow::slide(uint8_t in) {
  const uint8_t out = buf_[pos_];
  buf_[pos_] = in;
  pos_ = (pos_ + 1) % buf_.size();
  fp_ = roll(fp_, out, in);
  return fp_;
}

void RabinWindow::reset() {
  std::fill(buf_.begin(), buf_.end(), 0);
  pos_ = 0;
  fp_ = 0;
}

}  // namespace freqdedup
