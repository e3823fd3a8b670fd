#include "server/client_conn.h"

#include <algorithm>

namespace freqdedup::server {

namespace {

/// Bytes per append/range request: comfortably frame-bounded, large enough
/// that framing overhead is noise.
constexpr size_t kIoChunkBytes = 1u << 20;

}  // namespace

RemoteDedupClient::RemoteDedupClient(const std::string& address,
                                     const std::string& tenant,
                                     const std::string& passphrase)
    : fd_(connectTo(parseAddress(address))), tenant_(tenant) {
  Hello hello;
  hello.tenant = tenant;
  hello.passphrase = passphrase;
  serverHello_ = decodeHelloOk(roundTrip(encode(hello)));
  if (serverHello_.version != kWireVersion)
    throw std::runtime_error("server speaks protocol version " +
                             std::to_string(serverHello_.version));
}

ByteView RemoteDedupClient::roundTrip(ByteView head, ByteView tail) {
  writeFrame(fd_.get(), head, tail);
  if (!readFrame(fd_.get(), rxBuf_))
    throw std::runtime_error("server closed the connection mid-request");
  if (peekType(rxBuf_) == MsgType::kError) {
    const ErrorReply err = decodeErrorReply(rxBuf_);
    throw RemoteError(err.code, err.message);
  }
  return rxBuf_;
}

RemoteBackup RemoteDedupClient::openBackup(const std::string& name) {
  BackupOpen req;
  req.name = name;
  return RemoteBackup(decodeBackupOpened(roundTrip(encode(req))).backupId);
}

void RemoteDedupClient::append(const RemoteBackup& backup, ByteView data) {
  size_t offset = 0;
  // An empty append is still one request (the server treats it as a no-op),
  // so callers get a response for every call.
  do {
    const size_t len = std::min(kIoChunkBytes, data.size() - offset);
    const SplitPayload req =
        encodeBackupAppend(backup.id(), data.subspan(offset, len));
    decodeOk(roundTrip(req.head, req.data));
    offset += len;
  } while (offset < data.size());
}

RemoteBackupResult RemoteDedupClient::finishBackup(const RemoteBackup& backup) {
  BackupFinish req;
  req.backupId = backup.id();
  const BackupDone done = decodeBackupDone(roundTrip(encode(req)));
  return {done.chunkCount, done.newChunks, done.duplicateChunks,
          done.crossTenantDuplicates};
}

void RemoteDedupClient::abortBackup(const RemoteBackup& backup) {
  BackupAbort req;
  req.backupId = backup.id();
  decodeOk(roundTrip(encode(req)));
}

uint64_t RemoteDedupClient::restore(const std::string& name,
                                    const RemoteByteSink& sink) {
  RestoreOpen openReq;
  openReq.name = name;
  const RestoreOpened opened =
      decodeRestoreOpened(roundTrip(encode(openReq)));
  uint64_t offset = 0;
  while (offset < opened.size) {
    RestoreRange rangeReq;
    rangeReq.restoreId = opened.restoreId;
    rangeReq.offset = offset;
    rangeReq.length = kIoChunkBytes;
    const ByteView chunk = decodeRestoreDataView(roundTrip(encode(rangeReq)));
    if (chunk.empty())
      throw std::runtime_error("restore: server returned a short object");
    sink(chunk);
    offset += chunk.size();
  }
  RestoreClose closeReq;
  closeReq.restoreId = opened.restoreId;
  decodeOk(roundTrip(encode(closeReq)));
  return opened.size;
}

ByteVec RemoteDedupClient::restoreAll(const std::string& name) {
  ByteVec out;
  restore(name, [&out](ByteView bytes) { appendBytes(out, bytes); });
  return out;
}

bool RemoteDedupClient::deleteBackup(const std::string& name) {
  DeleteBackup req;
  req.name = name;
  try {
    decodeOk(roundTrip(encode(req)));
    return true;
  } catch (const RemoteError& e) {
    if (e.code() == ErrorCode::kNotFound) return false;
    throw;
  }
}

std::vector<std::string> RemoteDedupClient::listBackups() {
  // The server pages its reply (sorted names, bounded bytes per frame);
  // follow the continuation cursor until the page is complete.
  std::vector<std::string> all;
  ListBackups req;
  while (true) {
    const ListResult page = decodeListResult(roundTrip(encode(req)));
    all.insert(all.end(), page.names.begin(), page.names.end());
    if (!page.truncated) return all;
    if (page.names.empty())
      throw std::runtime_error("list: truncated page without names");
    req.startAfter = all.back();
  }
}

std::string RemoteDedupClient::statsJson() {
  return decodeStatsResult(roundTrip(encode(StatsRequest{}))).json;
}

void RemoteDedupClient::shutdownServer() {
  decodeOk(roundTrip(encode(Shutdown{})));
}

}  // namespace freqdedup::server
