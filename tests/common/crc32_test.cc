#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace freqdedup {
namespace {

// Independent reference: CRC-32C one bit at a time, straight from the
// reflected polynomial, sharing no table or code with the kernels under test.
uint32_t bitwiseCrc32c(uint32_t crc, ByteView data) {
  crc = ~crc;
  for (const uint8_t b : data) {
    crc ^= b;
    for (int i = 0; i < 8; ++i) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1)));
  }
  return ~crc;
}

ByteVec randomBuffer(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

// Every entry point must equal the reference on `data`, from `seed`.
void expectAllKernelsMatch(uint32_t seed, ByteView data) {
  const uint32_t want = bitwiseCrc32c(seed, data);
  ASSERT_EQ(crc32cExtend(seed, data), want) << "len " << data.size();
  ASSERT_EQ(detail::crc32cExtendPortable(seed, data), want)
      << "len " << data.size();
  ASSERT_EQ(detail::crc32cExtendSingleStream(seed, data), want)
      << "len " << data.size();
  if (seed == 0) ASSERT_EQ(crc32c(data), want) << "len " << data.size();
}

TEST(Crc32, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(crc32c(toBytes("123456789")), 0xE3069283u);
}

TEST(Crc32, KnownVectorOnEveryKernel) {
  const ByteVec v = toBytes("123456789");
  EXPECT_EQ(bitwiseCrc32c(0, v), 0xE3069283u);
  EXPECT_EQ(detail::crc32cExtendPortable(0, v), 0xE3069283u);
  EXPECT_EQ(detail::crc32cExtendSingleStream(0, v), 0xE3069283u);
}

TEST(Crc32, ImplementationIsNamed) {
  const std::string impl = crc32cImplementation();
  EXPECT_TRUE(impl == "sse4.2" || impl == "portable") << impl;
}

// Every length up to a little past 4 KiB crosses each kernel's tail,
// alignment and block-size edges (8-byte words, 3 x 256-byte triples).
TEST(Crc32, MatchesBitwiseReferenceAtEveryShortLength) {
  const ByteVec buf = randomBuffer(1, 4100 + 16);
  for (size_t len = 0; len <= 4100; ++len)
    expectAllKernelsMatch(0, ByteView(buf.data(), len));
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryStartOffset) {
  const ByteVec buf = randomBuffer(2, 4100 + 16);
  for (size_t offset = 0; offset < 16; ++offset)
    for (const size_t len : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                             size_t{767}, size_t{768}, size_t{769},
                             size_t{4100}})
      expectAllKernelsMatch(0, ByteView(buf.data() + offset, len));
}

TEST(Crc32, MatchesBitwiseReferenceAtRandomLengthsUpTo1MiB) {
  const size_t kMax = size_t{1} << 20;
  const ByteVec buf = randomBuffer(3, kMax + 16);
  Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    const size_t offset = rng.next() % 16;
    const size_t len = i == 0 ? kMax : rng.next() % (kMax + 1);
    expectAllKernelsMatch(0, ByteView(buf.data() + offset, len));
  }
  // Exactly the interleave's long-block triple (3 x 8 KiB), and one byte
  // either side of it.
  for (const size_t len : {size_t{24575}, size_t{24576}, size_t{24577}})
    expectAllKernelsMatch(0, ByteView(buf.data(), len));
}

TEST(Crc32, MatchesBitwiseReferenceFromNonZeroSeeds) {
  const ByteVec buf = randomBuffer(5, 100000);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const auto seed = static_cast<uint32_t>(rng.next());
    const size_t len = rng.next() % buf.size();
    expectAllKernelsMatch(seed, ByteView(buf.data(), len));
  }
  expectAllKernelsMatch(0xFFFFFFFFu, buf);
}

TEST(Crc32, ExtendMatchesWholeAtEverySplitPoint) {
  const ByteVec buf = randomBuffer(7, 2000);
  const uint32_t whole = bitwiseCrc32c(0, buf);
  const ByteView all(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const ByteView head = all.subspan(0, split);
    const ByteView tail = all.subspan(split);
    ASSERT_EQ(crc32cExtend(crc32c(head), tail), whole) << "split " << split;
    ASSERT_EQ(detail::crc32cExtendPortable(
                  detail::crc32cExtendPortable(0, head), tail),
              whole)
        << "split " << split;
    ASSERT_EQ(detail::crc32cExtendSingleStream(
                  detail::crc32cExtendSingleStream(0, head), tail),
              whole)
        << "split " << split;
  }
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32, ExtendMatchesWhole) {
  const ByteVec whole = toBytes("hello world, this is a checksum test");
  uint32_t crc = 0;
  crc = crc32cExtend(crc, ByteView(whole.data(), 10));
  crc = crc32cExtend(crc, ByteView(whole.data() + 10, whole.size() - 10));
  EXPECT_EQ(crc, crc32c(whole));
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  ByteVec data = toBytes("payload");
  const uint32_t before = crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(crc32c(data), before);
}

TEST(Crc32, SensitiveToReordering) {
  EXPECT_NE(crc32c(toBytes("ab")), crc32c(toBytes("ba")));
}

TEST(Crc32, DifferentLengthsDiffer) {
  const ByteVec withNul{'a', 0x00};
  EXPECT_NE(crc32c(toBytes("a")), crc32c(withNul));
}

}  // namespace
}  // namespace freqdedup
