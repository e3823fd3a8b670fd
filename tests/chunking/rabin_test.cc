#include "chunking/rabin.h"

#include <gtest/gtest.h>

#include <vector>

#include "cdc_reference.h"
#include "common/rng.h"

namespace freqdedup {
namespace {

TEST(RabinPoly, Degree) {
  EXPECT_EQ(polyDegree(1), 0);
  EXPECT_EQ(polyDegree(2), 1);
  EXPECT_EQ(polyDegree(0x8000000000000000ULL), 63);
  EXPECT_EQ(polyDegree(kDefaultRabinPoly), 53);
}

TEST(RabinPoly, ModByItselfIsZero) {
  EXPECT_EQ(polyMod(0, kDefaultRabinPoly, kDefaultRabinPoly), 0u);
}

TEST(RabinPoly, ModOfSmallerValueIsIdentity) {
  EXPECT_EQ(polyMod(0, 0x1234, kDefaultRabinPoly), 0x1234u);
}

TEST(RabinPoly, MulModDistributes) {
  // (a + b) * c == a*c + b*c over GF(2) (xor is addition).
  const uint64_t d = kDefaultRabinPoly;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const uint64_t a = rng.next() >> 12;
    const uint64_t b = rng.next() >> 12;
    const uint64_t c = rng.next() >> 12;
    EXPECT_EQ(polyMulMod(a ^ b, c, d),
              polyMulMod(a, c, d) ^ polyMulMod(b, c, d));
  }
}

TEST(RabinPoly, MulModCommutes) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const uint64_t a = rng.next() >> 8;
    const uint64_t b = rng.next() >> 8;
    EXPECT_EQ(polyMulMod(a, b, kDefaultRabinPoly),
              polyMulMod(b, a, kDefaultRabinPoly));
  }
}

TEST(RabinPoly, MulByOneIsIdentityModP) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const uint64_t a = rng.next();
    EXPECT_EQ(polyMulMod(a, 1, kDefaultRabinPoly),
              polyMod(0, a, kDefaultRabinPoly));
  }
}

// Rolls `data` through `w` the way the CDC scan kernel does: the expiring
// byte is read back from the input, and nothing expires while the window is
// still filling. Calls `each(i, fp)` with the fingerprint after byte i.
template <typename F>
uint64_t rollOver(const RabinWindow& w, ByteView data, F&& each) {
  const size_t n = w.windowSize();
  uint64_t fp = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    fp = i < n ? w.append(fp, data[i]) : w.roll(fp, data[i - n], data[i]);
    each(i, fp);
  }
  return fp;
}

uint64_t rollOver(const RabinWindow& w, ByteView data) {
  return rollOver(w, data, [](size_t, uint64_t) {});
}

ByteVec randomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

// The tables against the frozen ring-buffer window that defined every chunk
// boundary: rolling with the expiring byte read from the input must give
// the ring buffer's fingerprint after every byte.
TEST(RabinWindow, RollMatchesFrozenRingBufferSlide) {
  for (const uint32_t window : {2u, 31u, 48u, 64u}) {
    const RabinWindow w(window);
    reference::RingRabinWindow ring(window, kDefaultRabinPoly);
    const ByteVec data = randomBytes(window, 5000);
    rollOver(w, data, [&](size_t i, uint64_t fp) {
      ASSERT_EQ(fp, ring.slide(data[i])) << "window " << window << " byte " << i;
    });
  }
}

// roll() is the windowed form of append(): after any history, the rolled
// fingerprint equals appending just the last windowSize bytes from 0.
TEST(RabinWindow, RollEqualsAppendOfLastWindowFromZero) {
  const RabinWindow w(48);
  const ByteVec data = randomBytes(8, 600);
  rollOver(w, data, [&](size_t i, uint64_t fp) {
    if (i + 1 < w.windowSize()) return;
    uint64_t fresh = 0;
    for (size_t j = i + 1 - w.windowSize(); j <= i; ++j)
      fresh = w.append(fresh, data[j]);
    ASSERT_EQ(fp, fresh) << "byte " << i;
  });
}

TEST(RabinWindow, DeterministicAcrossInstances) {
  const RabinWindow w1(48), w2(48);
  const ByteVec data = randomBytes(7, 500);
  std::vector<uint64_t> fps;
  rollOver(w1, data, [&](size_t, uint64_t fp) { fps.push_back(fp); });
  rollOver(w2, data, [&](size_t i, uint64_t fp) { EXPECT_EQ(fp, fps[i]); });
}

// The defining property of a rolling hash: after rolling in enough bytes,
// the fingerprint depends only on the last `window` bytes.
TEST(RabinWindow, FingerprintDependsOnlyOnWindow) {
  const uint32_t window = 32;
  const RabinWindow w(window);
  const ByteVec tail = randomBytes(11, window);

  // Prefix A then the tail, and a different prefix B then the same tail.
  ByteVec a = randomBytes(12, 1000);
  ByteVec b = randomBytes(13, 777);
  appendBytes(a, tail);
  appendBytes(b, tail);

  EXPECT_EQ(rollOver(w, a), rollOver(w, b));
}

// Zero bytes contribute nothing, so a window of zeros is a fresh window
// (fingerprint 0) and expiring a zero byte is a plain append — what lets
// the scan kernel start hashing partway into a chunk.
TEST(RabinWindow, ZeroBytesContributeNothing) {
  const RabinWindow w(48);
  EXPECT_EQ(w.append(0, 0), 0u);
  EXPECT_EQ(rollOver(w, ByteVec(200, 0)), 0u);
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    const uint64_t fp = rng.next() >> 11;  // a residue below degree 53
    const auto in = static_cast<uint8_t>(rng.next());
    EXPECT_EQ(w.roll(fp, 0, in), w.append(fp, in));
  }
}

TEST(RabinWindow, DifferentContentDifferentFingerprint) {
  const RabinWindow w(48);
  ByteVec a(100), b(100);
  for (int i = 0; i < 100; ++i) {
    a[i] = static_cast<uint8_t>(i);
    b[i] = static_cast<uint8_t>(i + 1);
  }
  EXPECT_NE(rollOver(w, a), rollOver(w, b));
}

TEST(RabinWindow, RejectsTinyWindow) {
  EXPECT_THROW(RabinWindow(1), std::logic_error);
}

TEST(RabinWindow, FingerprintStaysBelowPolyDegreeBound) {
  // All fingerprints are residues mod a degree-53 polynomial.
  const RabinWindow w(48);
  rollOver(w, randomBytes(13, 2000),
           [](size_t, uint64_t fp) { EXPECT_LT(fp, 1ULL << 54); });
}

}  // namespace
}  // namespace freqdedup
