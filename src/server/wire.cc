#include "server/wire.h"

#include "common/crc32.h"
#include "common/varint.h"

namespace freqdedup::server {

// ---- WireReader ----

uint8_t WireReader::u8() {
  if (remaining() < 1) throw WireError("truncated u8");
  return in_[pos_++];
}

uint32_t WireReader::u32() {
  if (remaining() < 4) throw WireError("truncated u32");
  const uint32_t v = getU32(in_, pos_);
  pos_ += 4;
  return v;
}

uint64_t WireReader::u64() {
  if (remaining() < 8) throw WireError("truncated u64");
  const uint64_t v = getU64(in_, pos_);
  pos_ += 8;
  return v;
}

uint64_t WireReader::varint() {
  const auto v = getVarint(in_, pos_);
  if (!v) throw WireError("truncated or overlong varint");
  return *v;
}

std::string WireReader::str(size_t maxBytes) {
  const uint64_t len = varint();
  // Cap first, then remaining-bytes: both checks run before the allocation.
  if (len > maxBytes) throw WireError("string exceeds field cap");
  if (len > remaining()) throw WireError("string length exceeds payload");
  std::string s(reinterpret_cast<const char*>(in_.data() + pos_),
                static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return s;
}

ByteVec WireReader::bytes(size_t maxBytes) {
  const ByteView b = bytesView(maxBytes);
  return ByteVec(b.begin(), b.end());
}

ByteView WireReader::bytesView(size_t maxBytes) {
  const uint64_t len = varint();
  if (len > maxBytes) throw WireError("byte field exceeds cap");
  if (len > remaining()) throw WireError("byte field length exceeds payload");
  const ByteView b = in_.subspan(pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return b;
}

void WireReader::expectEnd() const {
  if (remaining() != 0) throw WireError("trailing bytes after message");
}

// ---- Frame codec ----

FrameHeader encodeFrameHeader(ByteView head, ByteView tail) {
  if (head.size() > kMaxFrameBytes ||
      tail.size() > kMaxFrameBytes - head.size())
    throw WireError("payload too large");
  const uint32_t crc = crc32cExtend(crc32c(head), tail);
  const auto len = static_cast<uint32_t>(head.size() + tail.size());
  FrameHeader header;
  for (int i = 0; i < 4; ++i) {  // both fields little-endian, like putU32
    header[i] = static_cast<uint8_t>(crc >> (8 * i));
    header[4 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return header;
}

ByteVec encodeFrame(ByteView payload) {
  const FrameHeader header = encodeFrameHeader(payload);
  ByteVec frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  appendBytes(frame, header);
  appendBytes(frame, payload);
  return frame;
}

ByteVec decodeFrame(ByteView frame) {
  if (frame.size() < kFrameHeaderBytes) throw WireError("truncated frame header");
  const uint32_t crc = getU32(frame, 0);
  const uint32_t len = getU32(frame, 4);
  if (len > kMaxFrameBytes) throw WireError("frame length exceeds cap");
  if (frame.size() - kFrameHeaderBytes < len)
    throw WireError("truncated frame payload");
  if (frame.size() - kFrameHeaderBytes > len)
    throw WireError("trailing bytes after frame");
  ByteView payload = frame.subspan(kFrameHeaderBytes, len);
  if (crc32c(payload) != crc) throw WireError("frame CRC mismatch");
  return ByteVec(payload.begin(), payload.end());
}

// ---- Message codecs ----

MsgType peekType(ByteView payload) {
  if (payload.empty()) throw WireError("empty payload");
  const uint8_t t = payload[0];
  const bool request = t >= static_cast<uint8_t>(MsgType::kHello) &&
                       t <= static_cast<uint8_t>(MsgType::kShutdown);
  const bool response = t >= static_cast<uint8_t>(MsgType::kHelloOk) &&
                        t <= static_cast<uint8_t>(MsgType::kError);
  if (!request && !response) throw WireError("unknown message type");
  return static_cast<MsgType>(t);
}

namespace {

ByteVec begin(MsgType t) {
  ByteVec out;
  out.push_back(static_cast<uint8_t>(t));
  return out;
}

WireReader open(ByteView payload, MsgType expect, const char* what) {
  WireReader r(payload);
  if (r.u8() != static_cast<uint8_t>(expect))
    throw WireError(std::string("wrong type byte for ") + what);
  return r;
}

void putStr(ByteVec& out, const std::string& s) {
  putVarint(out, s.size());
  appendBytes(out, toBytes(s));
}

/// Decoder for the five messages that are just {type, u64 id}.
uint64_t decodeIdOnly(ByteView payload, MsgType expect, const char* what) {
  WireReader r = open(payload, expect, what);
  const uint64_t id = r.u64();
  r.expectEnd();
  return id;
}

/// Decoder for the three empty messages {type}.
void decodeEmpty(ByteView payload, MsgType expect, const char* what) {
  WireReader r = open(payload, expect, what);
  r.expectEnd();
}

}  // namespace

ByteVec encode(const Hello& m) {
  ByteVec out = begin(MsgType::kHello);
  putU32(out, m.magic);
  putU32(out, m.version);
  putStr(out, m.tenant);
  putStr(out, m.passphrase);
  return out;
}

Hello decodeHello(ByteView payload) {
  WireReader r = open(payload, MsgType::kHello, "Hello");
  Hello m;
  m.magic = r.u32();
  m.version = r.u32();
  m.tenant = r.str(kMaxTenantBytes);
  m.passphrase = r.str(kMaxPassphraseBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const HelloOk& m) {
  ByteVec out = begin(MsgType::kHelloOk);
  putU32(out, m.version);
  putU64(out, m.maxFrameBytes);
  return out;
}

HelloOk decodeHelloOk(ByteView payload) {
  WireReader r = open(payload, MsgType::kHelloOk, "HelloOk");
  HelloOk m;
  m.version = r.u32();
  m.maxFrameBytes = r.u64();
  r.expectEnd();
  return m;
}

ByteVec encode(const BackupOpen& m) {
  ByteVec out = begin(MsgType::kBackupOpen);
  putStr(out, m.name);
  return out;
}

BackupOpen decodeBackupOpen(ByteView payload) {
  WireReader r = open(payload, MsgType::kBackupOpen, "BackupOpen");
  BackupOpen m;
  m.name = r.str(kMaxNameBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const BackupOpened& m) {
  ByteVec out = begin(MsgType::kBackupOpened);
  putU64(out, m.backupId);
  return out;
}

BackupOpened decodeBackupOpened(ByteView payload) {
  return {decodeIdOnly(payload, MsgType::kBackupOpened, "BackupOpened")};
}

namespace {

ByteVec joined(const SplitPayload& p) {
  ByteVec out;
  out.reserve(p.head.size() + p.data.size());
  appendBytes(out, p.head);
  appendBytes(out, p.data);
  return out;
}

}  // namespace

SplitPayload encodeBackupAppend(uint64_t backupId, ByteView data) {
  SplitPayload p{begin(MsgType::kBackupAppend), data};
  putU64(p.head, backupId);
  putVarint(p.head, data.size());
  return p;
}

ByteVec encode(const BackupAppend& m) {
  return joined(encodeBackupAppend(m.backupId, m.data));
}

BackupAppendView decodeBackupAppendView(ByteView payload) {
  WireReader r = open(payload, MsgType::kBackupAppend, "BackupAppend");
  BackupAppendView m;
  m.backupId = r.u64();
  m.data = r.bytesView(kMaxDataBytes);
  r.expectEnd();
  return m;
}

BackupAppend decodeBackupAppend(ByteView payload) {
  const BackupAppendView v = decodeBackupAppendView(payload);
  return {v.backupId, ByteVec(v.data.begin(), v.data.end())};
}

ByteVec encode(const BackupFinish& m) {
  ByteVec out = begin(MsgType::kBackupFinish);
  putU64(out, m.backupId);
  return out;
}

BackupFinish decodeBackupFinish(ByteView payload) {
  return {decodeIdOnly(payload, MsgType::kBackupFinish, "BackupFinish")};
}

ByteVec encode(const BackupAbort& m) {
  ByteVec out = begin(MsgType::kBackupAbort);
  putU64(out, m.backupId);
  return out;
}

BackupAbort decodeBackupAbort(ByteView payload) {
  return {decodeIdOnly(payload, MsgType::kBackupAbort, "BackupAbort")};
}

ByteVec encode(const BackupDone& m) {
  ByteVec out = begin(MsgType::kBackupDone);
  putVarint(out, m.chunkCount);
  putVarint(out, m.newChunks);
  putVarint(out, m.duplicateChunks);
  putVarint(out, m.crossTenantDuplicates);
  return out;
}

BackupDone decodeBackupDone(ByteView payload) {
  WireReader r = open(payload, MsgType::kBackupDone, "BackupDone");
  BackupDone m;
  m.chunkCount = r.varint();
  m.newChunks = r.varint();
  m.duplicateChunks = r.varint();
  m.crossTenantDuplicates = r.varint();
  r.expectEnd();
  return m;
}

ByteVec encode(const RestoreOpen& m) {
  ByteVec out = begin(MsgType::kRestoreOpen);
  putStr(out, m.name);
  return out;
}

RestoreOpen decodeRestoreOpen(ByteView payload) {
  WireReader r = open(payload, MsgType::kRestoreOpen, "RestoreOpen");
  RestoreOpen m;
  m.name = r.str(kMaxNameBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const RestoreOpened& m) {
  ByteVec out = begin(MsgType::kRestoreOpened);
  putU64(out, m.restoreId);
  putU64(out, m.size);
  return out;
}

RestoreOpened decodeRestoreOpened(ByteView payload) {
  WireReader r = open(payload, MsgType::kRestoreOpened, "RestoreOpened");
  RestoreOpened m;
  m.restoreId = r.u64();
  m.size = r.u64();
  r.expectEnd();
  return m;
}

ByteVec encode(const RestoreRange& m) {
  ByteVec out = begin(MsgType::kRestoreRange);
  putU64(out, m.restoreId);
  putU64(out, m.offset);
  putU64(out, m.length);
  return out;
}

RestoreRange decodeRestoreRange(ByteView payload) {
  WireReader r = open(payload, MsgType::kRestoreRange, "RestoreRange");
  RestoreRange m;
  m.restoreId = r.u64();
  m.offset = r.u64();
  m.length = r.u64();
  r.expectEnd();
  return m;
}

SplitPayload encodeRestoreData(ByteView data) {
  SplitPayload p{begin(MsgType::kRestoreData), data};
  putVarint(p.head, data.size());
  return p;
}

ByteVec encode(const RestoreData& m) {
  return joined(encodeRestoreData(m.data));
}

ByteView decodeRestoreDataView(ByteView payload) {
  WireReader r = open(payload, MsgType::kRestoreData, "RestoreData");
  const ByteView data = r.bytesView(kMaxDataBytes);
  r.expectEnd();
  return data;
}

RestoreData decodeRestoreData(ByteView payload) {
  const ByteView data = decodeRestoreDataView(payload);
  return {ByteVec(data.begin(), data.end())};
}

ByteVec encode(const RestoreClose& m) {
  ByteVec out = begin(MsgType::kRestoreClose);
  putU64(out, m.restoreId);
  return out;
}

RestoreClose decodeRestoreClose(ByteView payload) {
  return {decodeIdOnly(payload, MsgType::kRestoreClose, "RestoreClose")};
}

ByteVec encode(const DeleteBackup& m) {
  ByteVec out = begin(MsgType::kDelete);
  putStr(out, m.name);
  return out;
}

DeleteBackup decodeDeleteBackup(ByteView payload) {
  WireReader r = open(payload, MsgType::kDelete, "DeleteBackup");
  DeleteBackup m;
  m.name = r.str(kMaxNameBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const ListBackups& m) {
  ByteVec out = begin(MsgType::kList);
  putStr(out, m.startAfter);
  return out;
}

ListBackups decodeListBackups(ByteView payload) {
  WireReader r = open(payload, MsgType::kList, "ListBackups");
  ListBackups m;
  m.startAfter = r.str(kMaxNameBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const ListResult& m) {
  ByteVec out = begin(MsgType::kListResult);
  out.push_back(m.truncated ? 1 : 0);
  putVarint(out, m.names.size());
  for (const std::string& n : m.names) putStr(out, n);
  return out;
}

ListResult decodeListResult(ByteView payload) {
  WireReader r = open(payload, MsgType::kListResult, "ListResult");
  const uint8_t truncated = r.u8();
  if (truncated > 1) throw WireError("bad truncated flag");
  const uint64_t count = r.varint();
  if (count > kMaxListNames) throw WireError("list count exceeds cap");
  // Each name costs at least one length byte, so `count` can never exceed
  // the remaining payload — checked before reserving anything.
  if (count > r.remaining()) throw WireError("list count exceeds payload");
  ListResult m;
  m.truncated = truncated != 0;
  m.names.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) m.names.push_back(r.str(kMaxNameBytes));
  r.expectEnd();
  return m;
}

ByteVec encode(const StatsRequest&) { return begin(MsgType::kStats); }

StatsRequest decodeStatsRequest(ByteView payload) {
  decodeEmpty(payload, MsgType::kStats, "StatsRequest");
  return {};
}

ByteVec encode(const StatsResult& m) {
  ByteVec out = begin(MsgType::kStatsResult);
  putStr(out, m.json);
  return out;
}

StatsResult decodeStatsResult(ByteView payload) {
  WireReader r = open(payload, MsgType::kStatsResult, "StatsResult");
  StatsResult m;
  m.json = r.str(kMaxDataBytes);
  r.expectEnd();
  return m;
}

ByteVec encode(const Shutdown&) { return begin(MsgType::kShutdown); }

Shutdown decodeShutdown(ByteView payload) {
  decodeEmpty(payload, MsgType::kShutdown, "Shutdown");
  return {};
}

ByteVec encode(const Ok&) { return begin(MsgType::kOk); }

Ok decodeOk(ByteView payload) {
  decodeEmpty(payload, MsgType::kOk, "Ok");
  return {};
}

ByteVec encode(const ErrorReply& m) {
  ByteVec out = begin(MsgType::kError);
  putU32(out, static_cast<uint32_t>(m.code));
  putStr(out, m.message);
  return out;
}

ErrorReply decodeErrorReply(ByteView payload) {
  WireReader r = open(payload, MsgType::kError, "ErrorReply");
  ErrorReply m;
  const uint32_t code = r.u32();
  if (code < static_cast<uint32_t>(ErrorCode::kBadRequest) ||
      code > static_cast<uint32_t>(ErrorCode::kAuthFailed))
    throw WireError("unknown error code");
  m.code = static_cast<ErrorCode>(code);
  m.message = r.str(kMaxErrorBytes);
  r.expectEnd();
  return m;
}

}  // namespace freqdedup::server
