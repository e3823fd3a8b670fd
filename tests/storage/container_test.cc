#include "storage/container.h"

#include <gtest/gtest.h>

namespace freqdedup {
namespace {

TEST(ContainerBuilder, AccumulatesChunks) {
  ContainerBuilder builder(1024);
  EXPECT_TRUE(builder.empty());
  builder.add(1, 100, toBytes(std::string(100, 'a')));
  builder.add(2, 200, toBytes(std::string(200, 'b')));
  EXPECT_EQ(builder.chunkCount(), 2u);
  EXPECT_EQ(builder.pendingBytes(), 300u);
}

TEST(ContainerBuilder, WouldOverflow) {
  ContainerBuilder builder(250);
  EXPECT_FALSE(builder.wouldOverflow(1000));  // empty builder always accepts
  builder.add(1, 200, {});
  EXPECT_TRUE(builder.wouldOverflow(100));
  EXPECT_FALSE(builder.wouldOverflow(50));
}

TEST(ContainerBuilder, SealResetsState) {
  ContainerBuilder builder(1024);
  builder.add(1, 10, {});
  const Container c = builder.seal(7);
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.chunkCount(), 1u);
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.pendingBytes(), 0u);
}

TEST(ContainerBuilder, SealEmptyRejected) {
  ContainerBuilder builder(1024);
  EXPECT_THROW(builder.seal(0), std::logic_error);
}

TEST(ContainerBuilder, SizeMismatchRejected) {
  ContainerBuilder builder(1024);
  EXPECT_THROW(builder.add(1, 10, toBytes("short")), std::logic_error);
}

TEST(ContainerBuilder, DataOffsetsTrackPayload) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  builder.add(2, 4, toBytes("defg"));
  const Container c = builder.seal(0);
  EXPECT_EQ(c.entries[0].dataOffset, 0u);
  EXPECT_EQ(c.entries[1].dataOffset, 3u);
  EXPECT_EQ(toString(ByteView(c.data.data() + 3, 4)), "defg");
}

TEST(ContainerBuilder, PayloadViewsPendingChunks) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  builder.add(2, 4, toBytes("defg"));
  EXPECT_EQ(toString(builder.payload(0)), "abc");
  EXPECT_EQ(toString(builder.payload(1)), "defg");
  ContainerBuilder trace(1024);
  trace.add(1, 10, {});
  EXPECT_TRUE(trace.payload(0).empty());
}

TEST(ContainerBuilder, ReusesItsBufferAcrossSeals) {
  ContainerBuilder builder(1024);
  builder.add(1, 5, toBytes("first"));
  const Container a = builder.seal(0);
  builder.add(2, 6, toBytes("second"));
  EXPECT_EQ(toString(builder.payload(0)), "second");
  const Container b = builder.seal(1);
  EXPECT_EQ(toString(a.data), "first");
  EXPECT_EQ(toString(b.data), "second");
  EXPECT_EQ(b.entries[0].dataOffset, 0u);
}

// The exact bytes a two-chunk legacy frame has always had: magic, id, entry
// table, data length, data, CRC-32C trailer.
TEST(Container, LegacyFrameBytesArePinned) {
  ContainerBuilder builder(1024);
  builder.add(0xAAAA, 5, toBytes("hello"));
  builder.add(0xBBBB, 5, toBytes("world"));
  const ByteVec expected = {
      0x54, 0x43, 0x44, 0x46, 0x2A, 0x00, 0x00, 0x00, 0x02, 0xAA, 0xAA,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
      0xBB, 0xBB, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
      0x00, 0x05, 0x0A, 0x68, 0x65, 0x6C, 0x6C, 0x6F, 0x77, 0x6F, 0x72,
      0x6C, 0x64, 0x0B, 0xFB, 0xF3, 0x3B};
  EXPECT_EQ(serializeContainer(builder.seal(42)), expected);
}

// frameContainer's pieces are serializeContainer's bytes, and a legacy
// frame's payload is the container's own data, not a copy.
TEST(Container, FramePiecesConcatenateToSerializedBytes) {
  ContainerBuilder builder(1 << 20);
  for (uint32_t i = 0; i < 64; ++i)
    builder.add(i, 1000, ByteVec(1000, static_cast<uint8_t>(i % 3)));
  const Container c = builder.seal(9);
  for (const ContainerCodec codec :
       {ContainerCodec::kNone, effectiveCodec(ContainerCodec::kDeflate)}) {
    const ContainerFrame frame = frameContainer(c, codec);
    ByteVec joined = frame.head;
    appendBytes(joined, frame.payload);
    putU32(joined, frame.crc);
    EXPECT_EQ(joined, serializeContainer(c, codec));
    EXPECT_EQ(frame.size(), joined.size());
    EXPECT_EQ(frame.isCodecFrame(), codec != ContainerCodec::kNone);
    if (codec == ContainerCodec::kNone)
      EXPECT_EQ(frame.payload.data(), c.data.data());
    else
      EXPECT_TRUE(frame.payload.empty());
  }
}

// Parsing from an owned buffer keeps a legacy frame's data in that buffer;
// the result must equal the copying parse for either frame format.
TEST(Container, MovingParseMatchesCopyingParse) {
  ContainerBuilder builder(1 << 20);
  for (uint32_t i = 0; i < 32; ++i)
    builder.add(i, 700, ByteVec(700, static_cast<uint8_t>(i % 4)));
  const Container c = builder.seal(5);
  for (const ContainerCodec codec :
       {ContainerCodec::kNone, effectiveCodec(ContainerCodec::kDeflate)}) {
    const ByteVec frame = serializeContainer(c, codec);
    const Container copied = parseContainer(ByteView(frame));
    Container moved = parseContainer(ByteVec(frame));
    EXPECT_EQ(moved.id, copied.id);
    EXPECT_EQ(moved.entries, copied.entries);
    EXPECT_EQ(moved.data, copied.data);
    EXPECT_EQ(moved.data, c.data);
    EXPECT_EQ(moved.storageCodec, copied.storageCodec);
  }
}

TEST(Container, SerializeParseRoundtrip) {
  ContainerBuilder builder(1024);
  builder.add(0xAAAA, 5, toBytes("hello"));
  builder.add(0xBBBB, 5, toBytes("world"));
  const Container original = builder.seal(42);
  const Container parsed = parseContainer(serializeContainer(original));
  EXPECT_EQ(parsed.id, original.id);
  EXPECT_EQ(parsed.entries, original.entries);
  EXPECT_EQ(parsed.data, original.data);
}

TEST(Container, TraceModeRoundtrip) {
  ContainerBuilder builder(64 * 1024);
  builder.add(1, 8192, {});  // trace mode: size only, no bytes
  builder.add(2, 4096, {});
  const Container original = builder.seal(3);
  EXPECT_EQ(original.dataBytes(), 12288u);
  EXPECT_TRUE(original.data.empty());
  const Container parsed = parseContainer(serializeContainer(original));
  EXPECT_EQ(parsed.entries, original.entries);
}

TEST(Container, CorruptChecksumRejected) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  ByteVec bytes = serializeContainer(builder.seal(0));
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(parseContainer(bytes), std::runtime_error);
}

TEST(Container, TruncatedInputRejected) {
  ContainerBuilder builder(1024);
  builder.add(1, 3, toBytes("abc"));
  ByteVec bytes = serializeContainer(builder.seal(0));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(parseContainer(bytes), std::runtime_error);
}

TEST(Container, MetadataBytesAt32PerFingerprint) {
  ContainerBuilder builder(1024 * 1024);
  for (Fp fp = 0; fp < 10; ++fp) builder.add(fp, 100, {});
  EXPECT_EQ(builder.seal(0).metadataBytes(), 320u);
}

}  // namespace
}  // namespace freqdedup
