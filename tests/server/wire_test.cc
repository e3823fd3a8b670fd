// Wire protocol codec tests: every message round-trips, the frame codec
// enforces CRC + length, and the bounds-checked reader rejects malformed
// input (truncation, oversize fields, trailing garbage) with WireError.
#include "server/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/varint.h"

namespace freqdedup::server {
namespace {

TEST(Wire, FrameRoundTrip) {
  const ByteVec payload = toBytes("hello frame");
  const ByteVec frame = encodeFrame(payload);
  EXPECT_EQ(frame.size(), payload.size() + kFrameHeaderBytes);
  EXPECT_EQ(decodeFrame(frame), payload);
}

TEST(Wire, FrameRejectsCorruptCrc) {
  ByteVec frame = encodeFrame(toBytes("payload"));
  frame.back() ^= 0x01;
  EXPECT_THROW(decodeFrame(frame), WireError);
}

TEST(Wire, FrameRejectsTruncationAndTrailingBytes) {
  const ByteVec frame = encodeFrame(toBytes("payload"));
  // Truncation at every prefix length.
  for (size_t len = 0; len < frame.size(); ++len)
    EXPECT_THROW(decodeFrame(ByteView(frame.data(), len)), WireError) << len;
  // One trailing byte after a valid frame.
  ByteVec extended = frame;
  extended.push_back(0);
  EXPECT_THROW(decodeFrame(extended), WireError);
}

TEST(Wire, FrameRejectsOversizeLengthWithoutAllocating) {
  // Header claims a payload far over the cap; decode must reject on the
  // length field alone.
  ByteVec frame;
  putU32(frame, 0);                    // crc (never reached)
  putU32(frame, 0xFFFFFFFFu);          // absurd length
  EXPECT_THROW(decodeFrame(frame), WireError);
}

TEST(Wire, HelloRoundTrip) {
  Hello in;
  in.tenant = "acme";
  in.passphrase = "secret words";
  const Hello out = decodeHello(encode(in));
  EXPECT_EQ(out.magic, kHelloMagic);
  EXPECT_EQ(out.version, kWireVersion);
  EXPECT_EQ(out.tenant, "acme");
  EXPECT_EQ(out.passphrase, "secret words");
}

TEST(Wire, AllMessagesRoundTrip) {
  EXPECT_EQ(decodeHelloOk(encode(HelloOk{})).maxFrameBytes, kMaxFrameBytes);
  EXPECT_EQ(decodeBackupOpen(encode(BackupOpen{"vm.img"})).name, "vm.img");
  EXPECT_EQ(decodeBackupOpened(encode(BackupOpened{42})).backupId, 42u);
  {
    BackupAppend in;
    in.backupId = 7;
    in.data = toBytes("chunk data");
    const BackupAppend out = decodeBackupAppend(encode(in));
    EXPECT_EQ(out.backupId, 7u);
    EXPECT_EQ(out.data, toBytes("chunk data"));
  }
  EXPECT_EQ(decodeBackupFinish(encode(BackupFinish{9})).backupId, 9u);
  EXPECT_EQ(decodeBackupAbort(encode(BackupAbort{3})).backupId, 3u);
  {
    const BackupDone out =
        decodeBackupDone(encode(BackupDone{100, 60, 40, 12}));
    EXPECT_EQ(out.chunkCount, 100u);
    EXPECT_EQ(out.newChunks, 60u);
    EXPECT_EQ(out.duplicateChunks, 40u);
    EXPECT_EQ(out.crossTenantDuplicates, 12u);
  }
  EXPECT_EQ(decodeRestoreOpen(encode(RestoreOpen{"x"})).name, "x");
  {
    const RestoreOpened out = decodeRestoreOpened(encode(RestoreOpened{5, 999}));
    EXPECT_EQ(out.restoreId, 5u);
    EXPECT_EQ(out.size, 999u);
  }
  {
    const RestoreRange out =
        decodeRestoreRange(encode(RestoreRange{5, 4096, 65536}));
    EXPECT_EQ(out.restoreId, 5u);
    EXPECT_EQ(out.offset, 4096u);
    EXPECT_EQ(out.length, 65536u);
  }
  {
    RestoreData in;
    in.data = toBytes("restored bytes");
    EXPECT_EQ(decodeRestoreData(encode(in)).data, toBytes("restored bytes"));
  }
  EXPECT_EQ(decodeRestoreClose(encode(RestoreClose{5})).restoreId, 5u);
  EXPECT_EQ(decodeDeleteBackup(encode(DeleteBackup{"gone"})).name, "gone");
  EXPECT_EQ(decodeListBackups(encode(ListBackups{})).startAfter, "");
  {
    ListBackups in;
    in.startAfter = "vm-042.img";
    EXPECT_EQ(decodeListBackups(encode(in)).startAfter, "vm-042.img");
  }
  {
    ListResult in;
    in.names = {"a", "b/c", ""};
    const ListResult out = decodeListResult(encode(in));
    EXPECT_EQ(out.names, in.names);
    EXPECT_FALSE(out.truncated);
  }
  {
    ListResult in;
    in.names = {"page-end"};
    in.truncated = true;
    const ListResult out = decodeListResult(encode(in));
    EXPECT_EQ(out.names, in.names);
    EXPECT_TRUE(out.truncated);
  }
  decodeStatsRequest(encode(StatsRequest{}));
  EXPECT_EQ(decodeStatsResult(encode(StatsResult{"{}"})).json, "{}");
  decodeShutdown(encode(Shutdown{}));
  decodeOk(encode(Ok{}));
  {
    const ErrorReply out = decodeErrorReply(
        encode(ErrorReply{ErrorCode::kQuotaExceeded, "too big"}));
    EXPECT_EQ(out.code, ErrorCode::kQuotaExceeded);
    EXPECT_EQ(out.message, "too big");
  }
}

// The split encoders are the byte-field messages' encode() in two pieces,
// and the view decoders return the same fields as the copying ones.
TEST(Wire, SplitEncodersAndViewDecodersMatchCopyingForms) {
  const ByteVec data = toBytes("bulk bytes of an append or a range");
  {
    const SplitPayload split = encodeBackupAppend(7, data);
    ByteVec joined = split.head;
    appendBytes(joined, split.data);
    EXPECT_EQ(joined, encode(BackupAppend{7, data}));
    EXPECT_EQ(split.data.data(), data.data());
    const BackupAppendView view = decodeBackupAppendView(joined);
    EXPECT_EQ(view.backupId, 7u);
    EXPECT_EQ(ByteVec(view.data.begin(), view.data.end()), data);
    EXPECT_EQ(view.data.data(), joined.data() + split.head.size());
  }
  {
    const SplitPayload split = encodeRestoreData(data);
    ByteVec joined = split.head;
    appendBytes(joined, split.data);
    EXPECT_EQ(joined, encode(RestoreData{data}));
    const ByteView view = decodeRestoreDataView(joined);
    EXPECT_EQ(ByteVec(view.begin(), view.end()), data);
    EXPECT_EQ(view.data(), joined.data() + split.head.size());
  }
}

TEST(Wire, ViewDecodersRejectWhatCopyingDecodersReject) {
  const ByteVec append = encode(BackupAppend{7, toBytes("abc")});
  const ByteVec range = encode(RestoreData{toBytes("abc")});
  for (size_t len = 0; len < append.size(); ++len)
    EXPECT_THROW(decodeBackupAppendView(ByteView(append.data(), len)),
                 WireError)
        << len;
  for (size_t len = 0; len < range.size(); ++len)
    EXPECT_THROW(decodeRestoreDataView(ByteView(range.data(), len)), WireError)
        << len;
  ByteVec extended = append;
  extended.push_back(0);
  EXPECT_THROW(decodeBackupAppendView(extended), WireError);
  EXPECT_THROW(decodeRestoreDataView(append), WireError);  // wrong type
}

TEST(Wire, FrameHeaderSpansBothPieces) {
  const ByteVec payload = toBytes("head|tail of one payload");
  const ByteView all(payload);
  const ByteVec frame = encodeFrame(payload);
  for (size_t split = 0; split <= payload.size(); ++split) {
    const FrameHeader header =
        encodeFrameHeader(all.subspan(0, split), all.subspan(split));
    EXPECT_TRUE(std::equal(header.begin(), header.end(), frame.begin()))
        << split;
  }
}

TEST(Wire, DecodersRejectWrongTypeByte) {
  EXPECT_THROW(decodeHello(encode(Ok{})), WireError);
  EXPECT_THROW(decodeBackupOpen(encode(Hello{})), WireError);
  EXPECT_THROW(decodeOk(encode(Shutdown{})), WireError);
}

TEST(Wire, DecodersRejectTrailingGarbage) {
  ByteVec payload = encode(BackupFinish{1});
  payload.push_back(0x00);
  EXPECT_THROW(decodeBackupFinish(payload), WireError);

  ByteVec ok = encode(Ok{});
  ok.push_back(0xFF);
  EXPECT_THROW(decodeOk(ok), WireError);
}

TEST(Wire, ReaderRejectsOversizeStringBeforeAllocation) {
  // A BackupOpen whose name length field claims more than the cap: the
  // decoder must throw on the cap check, not attempt the allocation.
  ByteVec payload;
  payload.push_back(static_cast<uint8_t>(MsgType::kBackupOpen));
  putVarint(payload, kMaxNameBytes + 1);
  EXPECT_THROW(decodeBackupOpen(payload), WireError);
}

TEST(Wire, ReaderRejectsLengthBeyondPayload) {
  // Name length under the cap but beyond the actual bytes present.
  ByteVec payload;
  payload.push_back(static_cast<uint8_t>(MsgType::kBackupOpen));
  putVarint(payload, 100);
  payload.push_back('x');  // only 1 of the claimed 100 bytes
  EXPECT_THROW(decodeBackupOpen(payload), WireError);
}

TEST(Wire, ListCountValidatedAgainstPayload) {
  // A ListResult claiming 2^19 names with no bytes behind them must be
  // rejected before any reserve.
  ByteVec payload;
  payload.push_back(static_cast<uint8_t>(MsgType::kListResult));
  payload.push_back(0);  // truncated flag
  putVarint(payload, 1u << 19);
  EXPECT_THROW(decodeListResult(payload), WireError);
}

TEST(Wire, ListResultRejectsBadTruncatedFlag) {
  ByteVec payload;
  payload.push_back(static_cast<uint8_t>(MsgType::kListResult));
  payload.push_back(7);  // flag must be 0 or 1
  putVarint(payload, 0);
  EXPECT_THROW(decodeListResult(payload), WireError);
}

TEST(Wire, PeekTypeRejectsEmptyAndUnknown) {
  EXPECT_THROW(peekType({}), WireError);
  const ByteVec unknown{0x3F};  // gap between request and response ranges
  EXPECT_THROW(peekType(unknown), WireError);
  const ByteVec high{0xFF};
  EXPECT_THROW(peekType(high), WireError);
}

TEST(Wire, ErrorReplyRejectsUnknownCode) {
  ByteVec payload;
  payload.push_back(static_cast<uint8_t>(MsgType::kError));
  putU32(payload, 999);
  putVarint(payload, 0);
  EXPECT_THROW(decodeErrorReply(payload), WireError);
}

}  // namespace
}  // namespace freqdedup::server
