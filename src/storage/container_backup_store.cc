#include "storage/container_backup_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/check.h"
#include "common/crc32.h"
#include "common/varint.h"
#include "kvstore/logkv.h"
#include "kvstore/memkv.h"
#include "obs/trace.h"

namespace freqdedup {

namespace {

constexpr char kChunkKeyPrefix = 'C';
constexpr char kBlobKeyPrefix = 'B';
constexpr char kManifestKeyPrefix = 'M';

/// A read that races GC compaction re-resolves its fingerprint and retries
/// this many times before the failure is treated as real corruption.
constexpr int kReadRetryAttempts = 3;

ByteVec prefixedKey(char prefix, const std::string& name) {
  ByteVec key;
  key.reserve(1 + name.size());
  key.push_back(static_cast<uint8_t>(prefix));
  appendBytes(key, ByteView(reinterpret_cast<const uint8_t*>(name.data()),
                            name.size()));
  return key;
}

ByteVec manifestKey(const std::string& name) {
  return prefixedKey(kManifestKeyPrefix, name);
}

ByteVec blobKey(const std::string& name) {
  return prefixedKey(kBlobKeyPrefix, name);
}

/// Manifest payload: varint count, count * fp(u64), trailing CRC-32C.
ByteVec serializeManifest(std::span<const Fp> refs) {
  ByteVec out;
  putVarint(out, refs.size());
  for (const Fp fp : refs) putU64(out, fp);
  putU32(out, crc32c(out));
  return out;
}

std::vector<Fp> parseManifest(ByteView bytes) {
  if (bytes.size() < 5)
    throw std::runtime_error("manifest: input too short");
  const size_t bodySize = bytes.size() - 4;
  if (crc32c(bytes.subspan(0, bodySize)) != getU32(bytes, bodySize))
    throw std::runtime_error("manifest: checksum mismatch");
  const ByteView body = bytes.subspan(0, bodySize);
  size_t offset = 0;
  const auto count = getVarint(body, offset);
  if (!count) throw std::runtime_error("manifest: truncated header");
  if (*count > (bodySize - offset) / 8)
    throw std::runtime_error("manifest: truncated refs");
  std::vector<Fp> refs;
  refs.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    refs.push_back(getU64(body, offset));
    offset += 8;
  }
  if (offset != bodySize)
    throw std::runtime_error("manifest: trailing garbage");
  return refs;
}

/// Container file ids; files that are not <8 digits>.fdc are ignored.
std::optional<uint32_t> containerIdFromPath(const std::filesystem::path& p) {
  if (p.extension() != ".fdc") return std::nullopt;
  const std::string stem = p.stem().string();
  if (stem.empty() || stem.size() > 10) return std::nullopt;
  uint64_t id = 0;
  for (const char c : stem) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  if (id > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(id);
}

}  // namespace

ByteVec ContainerBackupStore::chunkKey(Fp fp) {
  ByteVec key;
  key.push_back(static_cast<uint8_t>(kChunkKeyPrefix));
  putU64(key, fp);
  return key;
}

ByteVec ContainerBackupStore::encodeChunkEntry(const ChunkEntry& e) {
  ByteVec value;
  putU32(value, e.containerId);
  putU32(value, e.entryIndex);
  putU32(value, e.size);
  putU32(value, e.refs);
  return value;
}

ContainerBackupStore::ChunkEntry ContainerBackupStore::decodeChunkEntry(
    ByteView value) {
  if (value.size() != 16)
    throw std::runtime_error("BackupStore: malformed index entry");
  return ChunkEntry{getU32(value, 0), getU32(value, 4), getU32(value, 8),
                    getU32(value, 12)};
}

ContainerBackupStore::ContainerBackupStore(std::unique_ptr<KvStore> index,
                                           std::string dir,
                                           const StoreOptions& options)
    : dir_(std::move(dir)),
      index_(std::move(index)),
      builder_(options.containerBytes),
      options_(options),
      putChunks_(registry_.counter("store.put_chunks")),
      putBytes_(registry_.counter("store.put_bytes")),
      uniqueChunks_(registry_.gauge("store.unique_chunks")),
      storedBytes_(registry_.gauge("store.stored_bytes")),
      chunkReads_(registry_.counter("store.chunk_reads")),
      batchReads_(registry_.counter("store.batch_reads")),
      containerLoads_(registry_.counter("store.container_loads")),
      readCacheHits_(registry_.counter("store.read_cache_hits")),
      readRetries_(registry_.counter("store.read_retries")),
      containerWrites_(registry_.counter("store.container_writes")),
      crcRecheckFailures_(registry_.counter("store.crc_recheck_failures")),
      singleflightCoalesces_(
          registry_.counter("store.singleflight_coalesces")),
      containerLoadUs_(registry_.histogram("store.container_load_us")),
      gcUs_(registry_.histogram("store.gc_us")),
      compressedContainers_(registry_.counter("store.compressed_containers")),
      containerRawBytes_(registry_.counter("store.container_raw_bytes")),
      containerPhysicalBytes_(
          registry_.counter("store.container_physical_bytes")),
      coldReads_(registry_.counter("tier.cold_reads")),
      coldReadBytes_(registry_.counter("tier.cold_read_bytes")),
      coldWriteBytes_(registry_.counter("tier.cold_write_bytes")),
      demotions_(registry_.counter("tier.demotions")),
      promotions_(registry_.counter("tier.promotions")),
      hotContainers_(registry_.gauge("tier.hot_containers")),
      hotBytes_(registry_.gauge("tier.hot_bytes")),
      coldContainers_(registry_.gauge("tier.cold_containers")),
      coldBytes_(registry_.gauge("tier.cold_bytes")),
      readCache_(dir_.empty() ? 0 : options.blockCacheBytes, registry_,
                 BlockCache::makePolicy(options.eviction)) {
  logKv_ = dynamic_cast<LogKv*>(index_.get());
  // Surface the index's WAL/checkpoint/recovery activity (wal.*, ckpt.*)
  // in this store's registry alongside the store.* metrics.
  if (logKv_ != nullptr) logKv_->bindMetrics(registry_);
  // The cold tier always lives at <dir>/cold, so a store reopened with
  // different options (or none) still finds every demoted container.
  // ColdTierOptions shape only demotion and the simulated performance.
  if (!dir_.empty())
    cold_ = std::make_unique<LocalObjectStore>(dir_ + "/cold",
                                               options.coldTier.sim);
}

ContainerBackupStore::~ContainerBackupStore() {
  if (!dir_.empty()) {
    try {
      flush();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
      // Destructors must not throw; an unflushed open container is the same
      // state as a crash before flush(), which recovery tolerates.
    }
  }
}

std::string ContainerBackupStore::containerPath(uint32_t id) const {
  return dir_ + "/containers/" + coldKey(id);
}

std::string ContainerBackupStore::coldKey(uint32_t id) {
  char name[32];
  snprintf(name, sizeof(name), "%08u.fdc", id);
  return name;
}

bool ContainerBackupStore::hasChunkLocked(Fp cipherFp) const {
  if (openChunks_.contains(cipherFp)) return true;
  return index_->contains(chunkKey(cipherFp));
}

bool ContainerBackupStore::hasChunk(Fp cipherFp) const {
  std::lock_guard lock(mu_);
  return hasChunkLocked(cipherFp);
}

uint32_t ContainerBackupStore::chunkRefCount(Fp cipherFp) const {
  std::lock_guard lock(mu_);
  const auto it = openChunks_.find(cipherFp);
  if (it != openChunks_.end()) return it->second.refs;
  const auto value = index_->get(chunkKey(cipherFp));
  if (!value) return 0;
  return decodeChunkEntry(*value).refs;
}

bool ContainerBackupStore::putChunk(Fp cipherFp, ByteView bytes) {
  std::lock_guard lock(mu_);
  putChunks_.add();
  putBytes_.add(bytes.size());
  if (hasChunkLocked(cipherFp)) return false;
  stageChunkLocked(cipherFp, bytes, /*refs=*/0);
  uniqueChunks_.add(1);
  storedBytes_.add(static_cast<int64_t>(bytes.size()));
  return true;
}

void ContainerBackupStore::stageChunkLocked(Fp fp, ByteView bytes,
                                            uint32_t refs) {
  if (builder_.wouldOverflow(static_cast<uint32_t>(bytes.size())))
    sealOpenContainerLocked();
  builder_.add(fp, static_cast<uint32_t>(bytes.size()), bytes);
  openChunks_.emplace(fp,
                      OpenChunk{ByteVec(bytes.begin(), bytes.end()), refs});
}

void ContainerBackupStore::sealOpenContainerLocked() {
  if (builder_.empty()) return;
  const uint32_t id = nextContainerId_++;
  Container container = builder_.seal(id);
  // Persist the container before its index entries: a crash in between
  // leaves only an orphan container file, which recovery deletes.
  if (!dir_.empty()) {
    const uint64_t physical = writeContainerFile(container);
    physicalBytes_[id] = physical;
    hotContainers_.add(1);
    hotBytes_.add(static_cast<int64_t>(physical));
  }
  for (uint32_t i = 0; i < container.entries.size(); ++i) {
    const Fp fp = container.entries[i].fp;
    const ChunkEntry e{id, i, container.entries[i].size,
                       openChunks_.at(fp).refs};
    index_->put(chunkKey(fp), encodeChunkEntry(e));
  }
  liveContainerIds_.insert(id);
  containerWrites_.add();
  auto shared = std::make_shared<const Container>(std::move(container));
  if (dir_.empty()) {
    containers_.emplace(id, BlockCache::makeEntry(std::move(shared)));
  } else if (readCache_.enabled()) {
    // Keep the freshly sealed container hot. Admission CRCs its payloads
    // while we hold the store lock — an O(container) pass on top of a seal
    // that is already O(container) — and is skipped entirely when the
    // cache cannot retain the entry anyway.
    readCache_.admit(id, std::move(shared));
  }
  openChunks_.clear();
}

uint64_t ContainerBackupStore::writeContainerFile(
    const Container& container) const {
  // Atomic write: containers become visible under their final name only
  // once fully written, so a torn write can never masquerade as a
  // container. Recovery deletes stray .tmp files.
  const ByteVec frame = serializeContainer(container, options_.codec);
  if (!frame.empty() && getU32(frame, 0) == kContainerMagicV2)
    compressedContainers_.add();
  containerRawBytes_.add(container.data.size());
  containerPhysicalBytes_.add(frame.size());
  const std::string path = containerPath(container.id);
  writeFile(path + ".tmp", frame);
  std::filesystem::rename(path + ".tmp", path);
  return frame.size();
}

std::shared_ptr<const Container> ContainerBackupStore::loadContainerLocked(
    uint32_t id) {
  if (dir_.empty()) {
    const auto it = containers_.find(id);
    if (it == containers_.end())
      throw std::runtime_error("BackupStore: container missing: " +
                               std::to_string(id));
    return it->second.container;
  }
  if (auto cached = readCache_.get(id)) return cached->container;
  // Deliberately not admitted: admin scans (GC, verify) visit each
  // container once, so admission would only pay the CRC-table pass and
  // evict the restore working set from the bounded cache. Cold containers
  // are likewise read in place, not promoted — a scan must not drag the
  // whole cold tier back into the hot directory.
  return parseContainerFile(id);
}

ContainerBackupStore::RawContainer ContainerBackupStore::readContainerRaw(
    uint32_t id) const {
  try {
    return {readFile(containerPath(id)), /*fromCold=*/false};
  } catch (const std::exception&) {
    // Fall through to the cold tier.
  }
  if (cold_ && cold_->exists(coldKey(id))) {
    try {
      RawContainer raw{cold_->get(coldKey(id)), /*fromCold=*/true};
      coldReads_.add();
      coldReadBytes_.add(raw.bytes.size());
      return raw;
    } catch (const std::exception&) {
      // A promotion may have moved it back to hot between exists and get.
    }
  }
  // Final attempt against the hot tier (covers a read racing a promotion);
  // its failure is the error the caller sees.
  return {readFile(containerPath(id)), /*fromCold=*/false};
}

std::shared_ptr<const Container> ContainerBackupStore::parseContainerFile(
    uint32_t id, bool* fromCold, ByteVec* rawBytes) const {
  RawContainer raw = readContainerRaw(id);
  auto container =
      std::make_shared<const Container>(parseContainer(raw.bytes));
  if (container->id != id)
    throw std::runtime_error("BackupStore: container id mismatch in " +
                             containerPath(id));
  if (fromCold != nullptr) *fromCold = raw.fromCold;
  if (rawBytes != nullptr) *rawBytes = std::move(raw.bytes);
  return container;
}

void ContainerBackupStore::promoteContainer(uint32_t id, ByteView frame) {
  // Entirely under mu_: the cold-copy removal must not race a GC pass that
  // re-demoted the container, or the only surviving copy could be deleted.
  std::lock_guard lock(mu_);
  if (!liveContainerIds_.contains(id) || !coldContainerIds_.contains(id))
    return;
  const std::string path = containerPath(id);
  writeFile(path + ".tmp", frame);
  std::filesystem::rename(path + ".tmp", path);
  cold_->remove(coldKey(id));
  coldContainerIds_.erase(id);
  const uint64_t physical = frame.size();
  physicalBytes_[id] = physical;
  promotions_.add();
  hotContainers_.add(1);
  hotBytes_.add(static_cast<int64_t>(physical));
  coldContainers_.sub(1);
  coldBytes_.sub(static_cast<int64_t>(physical));
}

void ContainerBackupStore::demoteContainerLocked(uint32_t id) {
  // Cold copy lands before the hot file goes away, so a crash (or a
  // concurrent reader) at any instant still finds one complete copy.
  const ByteVec frame = readFile(containerPath(id));
  cold_->put(coldKey(id), frame);
  std::filesystem::remove(containerPath(id));
  coldContainerIds_.insert(id);
  physicalBytes_[id] = frame.size();
  demotions_.add();
  coldWriteBytes_.add(frame.size());
  hotContainers_.sub(1);
  hotBytes_.sub(static_cast<int64_t>(frame.size()));
  coldContainers_.add(1);
  coldBytes_.add(static_cast<int64_t>(frame.size()));
}

void ContainerBackupStore::noteContainerRead(uint32_t id) {
  std::lock_guard lock(tierMu_);
  lastReadGen_[id] = ++readGen_;
}

BlockCache::Entry ContainerBackupStore::loadAndAdmit(uint32_t id) {
  if (!readCache_.enabled()) {
    // Cache disabled: nothing a loader admits could serve a waiter, so
    // single-flight coalescing would only serialize concurrent misses.
    // Every miss loads independently, in parallel.
    obs::ObsSpan span(&containerLoadUs_, "store.container_load", "store");
    bool fromCold = false;
    ByteVec raw;
    auto container = parseContainerFile(id, &fromCold, &raw);
    containerLoads_.add();
    if (fromCold) promoteContainer(id, raw);
    return BlockCache::makeEntry(std::move(container));
  }
  {
    std::unique_lock lock(loadMu_);
    bool waited = false;
    for (;;) {
      // Re-check under loadMu_ on every pass: a loader that finished —
      // whether we waited on it or it completed between our fetchContainer
      // miss and this lock — has already admitted the container, and
      // re-reading the file would both duplicate I/O and double-count
      // containerLoads. (recordStats=false: fetchContainer already counted
      // this logical lookup's miss.)
      if (auto cached = readCache_.get(id, /*recordStats=*/false)) {
        readCacheHits_.add();
        return *cached;
      }
      if (!loading_.contains(id)) break;
      if (!waited) {
        // This miss joined an in-flight load instead of issuing its own
        // file read — the coalescing the single-flight gate exists for.
        waited = true;
        singleflightCoalesces_.add();
      }
      loadCv_.wait(lock);
    }
    loading_.insert(id);
  }
  const auto finishLoad = [&] {
    {
      std::lock_guard lock(loadMu_);
      loading_.erase(id);
    }
    loadCv_.notify_all();
  };
  try {
    obs::ObsSpan span(&containerLoadUs_, "store.container_load", "store");
    bool fromCold = false;
    ByteVec raw;
    auto container = parseContainerFile(id, &fromCold, &raw);
    span.finish();
    containerLoads_.add();
    BlockCache::Entry entry = readCache_.admit(id, std::move(container));
    // A cold hit is promoted with the verbatim frame bytes we just read —
    // no re-serialization, so the hot copy is bit-identical to the cold one
    // (same codec, same CRC). The promotion itself re-checks liveness and
    // tier membership under mu_.
    if (fromCold) promoteContainer(id, raw);
    // Close the admit-vs-GC race: if GC compacted this container while we
    // were reading it (its invalidate() ran before our admit()), drop the
    // re-admitted entry so a dead container never pins a cache slot. GC
    // holds mu_ for its whole pass, so this check is before-or-after, never
    // interleaved; our local entry stays valid either way (ids are never
    // reused and the bytes are correct for the placement we resolved).
    {
      std::lock_guard lock(mu_);
      if (!liveContainerIds_.contains(id)) readCache_.invalidate(id);
    }
    finishLoad();
    return entry;
  } catch (...) {
    finishLoad();
    throw;
  }
}

BlockCache::Entry ContainerBackupStore::fetchContainer(uint32_t id) {
  if (dir_.empty()) {
    std::lock_guard lock(mu_);
    const auto it = containers_.find(id);
    if (it == containers_.end())
      throw std::runtime_error("BackupStore: container missing: " +
                               std::to_string(id));
    // Resident containers are the memory backend's cache equivalent.
    readCacheHits_.add();
    return it->second;
  }
  noteContainerRead(id);
  if (auto cached = readCache_.get(id)) {
    readCacheHits_.add();
    return *cached;
  }
  return loadAndAdmit(id);
}

void ContainerBackupStore::dropContainerLocked(uint32_t id) {
  containers_.erase(id);
  readCache_.invalidate(id);
  liveContainerIds_.erase(id);
  if (!dir_.empty()) {
    const auto sizeIt = physicalBytes_.find(id);
    const uint64_t physical =
        sizeIt == physicalBytes_.end() ? 0 : sizeIt->second;
    if (coldContainerIds_.erase(id) > 0) {
      if (cold_) cold_->remove(coldKey(id));
      coldContainers_.sub(1);
      coldBytes_.sub(static_cast<int64_t>(physical));
    } else {
      std::filesystem::remove(containerPath(id));
      hotContainers_.sub(1);
      hotBytes_.sub(static_cast<int64_t>(physical));
    }
    physicalBytes_.erase(id);
    std::lock_guard tierLock(tierMu_);
    lastReadGen_.erase(id);
  }
}

ByteVec ContainerBackupStore::extractPayload(
    const BlockCache::Entry& cached, Fp fp, const ChunkEntry& e) {
  const Container& container = *cached.container;
  if (e.entryIndex >= container.entries.size())
    throw std::runtime_error("BackupStore: index entry out of range for " +
                             fpToHex(fp));
  const ContainerEntry& entry = container.entries[e.entryIndex];
  if (entry.fp != fp || entry.size != e.size ||
      entry.dataOffset + entry.size > container.data.size())
    throw std::runtime_error("BackupStore: container/index mismatch for " +
                             fpToHex(fp));
  const ByteView payload =
      ByteView(container.data).subspan(entry.dataOffset, entry.size);
  // Every serve — cache hit or fresh load — re-checks the payload against
  // the CRC computed at admission, so a corrupted cached copy can never be
  // served as valid bytes.
  if (crc32c(payload) != (*cached.payloadCrcs)[e.entryIndex]) {
    crcRecheckFailures_.add();
    throw std::runtime_error("BackupStore: payload CRC mismatch for " +
                             fpToHex(fp));
  }
  return ByteVec(payload.begin(), payload.end());
}

ByteVec ContainerBackupStore::serveChunk(Fp fp, ChunkEntry e) {
  for (int attempt = 1;; ++attempt) {
    try {
      return extractPayload(fetchContainer(e.containerId), fp, e);
    } catch (const std::exception&) {
      // A concurrent GC may have compacted the container between the index
      // lookup and the container fetch (file deleted, chunk relocated).
      // Re-resolve the fingerprint against the current index and retry;
      // real corruption resolves to the same placement and rethrows.
      if (attempt >= kReadRetryAttempts) throw;
      readCache_.invalidate(e.containerId);
      ChunkEntry fresh;
      {
        std::lock_guard lock(mu_);
        const auto openIt = openChunks_.find(fp);
        if (openIt != openChunks_.end()) return openIt->second.bytes;
        const auto value = index_->get(chunkKey(fp));
        if (!value)
          throw std::runtime_error("BackupStore: chunk not found: " +
                                   fpToHex(fp));
        fresh = decodeChunkEntry(*value);
      }
      if (fresh.containerId == e.containerId &&
          fresh.entryIndex == e.entryIndex)
        throw;
      e = fresh;
      readRetries_.add();
    }
  }
}

ByteVec ContainerBackupStore::getChunk(Fp cipherFp) {
  chunkReads_.add();
  ChunkEntry e;
  {
    std::lock_guard lock(mu_);
    const auto openIt = openChunks_.find(cipherFp);
    if (openIt != openChunks_.end()) return openIt->second.bytes;
    const auto value = index_->get(chunkKey(cipherFp));
    if (!value)
      throw std::runtime_error("BackupStore: chunk not found: " +
                               fpToHex(cipherFp));
    e = decodeChunkEntry(*value);
  }
  return serveChunk(cipherFp, e);
}

std::vector<ByteVec> ContainerBackupStore::getChunks(
    std::span<const Fp> cipherFps) {
  batchReads_.add();
  chunkReads_.add(cipherFps.size());
  std::vector<ByteVec> out(cipherFps.size());

  // Phase 1 (index, under the lock): resolve every fingerprint to its
  // placement; open-container chunks are copied out directly.
  struct Need {
    size_t at = 0;  // position in the request / output
    Fp fp = 0;
    ChunkEntry entry;
  };
  std::vector<Need> needs;
  needs.reserve(cipherFps.size());
  {
    std::lock_guard lock(mu_);
    for (size_t i = 0; i < cipherFps.size(); ++i) {
      const auto openIt = openChunks_.find(cipherFps[i]);
      if (openIt != openChunks_.end()) {
        out[i] = openIt->second.bytes;
        continue;
      }
      const auto value = index_->get(chunkKey(cipherFps[i]));
      if (!value)
        throw std::runtime_error("BackupStore: chunk not found: " +
                                 fpToHex(cipherFps[i]));
      needs.push_back({i, cipherFps[i], decodeChunkEntry(*value)});
    }
  }

  // Phase 2 (containers, no lock): serve container by container, so one
  // fetch covers every chunk the batch takes from it. Containers are
  // visited in first-appearance order — not ascending id — so a bounded
  // read cache sees the same front-to-back locality the request had, and
  // the stable sort keeps request order within a container.
  std::unordered_map<uint32_t, size_t> groupRank;
  for (const Need& need : needs)
    groupRank.emplace(need.entry.containerId, groupRank.size());
  std::stable_sort(needs.begin(), needs.end(),
                   [&groupRank](const Need& a, const Need& b) {
                     return groupRank.at(a.entry.containerId) <
                            groupRank.at(b.entry.containerId);
                   });
  for (size_t i = 0; i < needs.size();) {
    size_t j = i;
    const uint32_t id = needs[i].entry.containerId;
    while (j < needs.size() && needs[j].entry.containerId == id) ++j;
    try {
      const BlockCache::Entry cached = fetchContainer(id);
      for (size_t k = i; k < j; ++k)
        out[needs[k].at] = extractPayload(cached, needs[k].fp, needs[k].entry);
    } catch (const std::exception&) {
      // GC race or corruption: fall back to per-chunk serving, which
      // re-resolves each fingerprint and retries before giving up. A chunk
      // whose retry still fails (genuine corruption) throws out of this
      // loop immediately — the rest of the group is not re-attempted.
      for (size_t k = i; k < j; ++k)
        out[needs[k].at] = serveChunk(needs[k].fp, needs[k].entry);
    }
    i = j;
  }
  return out;
}

std::vector<std::optional<ChunkPlacement>> ContainerBackupStore::chunkLocator(
    std::span<const Fp> cipherFps) const {
  std::vector<std::optional<ChunkPlacement>> out(cipherFps.size());
  std::lock_guard lock(mu_);
  for (size_t i = 0; i < cipherFps.size(); ++i) {
    const auto value = index_->get(chunkKey(cipherFps[i]));
    if (!value) continue;  // absent, or still in the open container
    const ChunkEntry e = decodeChunkEntry(*value);
    out[i] = ChunkPlacement{e.containerId, e.entryIndex, e.size};
  }
  return out;
}

BackupStoreStats ContainerBackupStore::stats() const {
  BackupStoreStats s;
  s.logicalPuts = putChunks_.value();
  s.logicalBytes = putBytes_.value();
  s.uniqueChunks = static_cast<uint64_t>(uniqueChunks_.value());
  s.storedBytes = static_cast<uint64_t>(storedBytes_.value());
  return s;
}

StoreReadStats ContainerBackupStore::readStats() const {
  StoreReadStats s;
  s.chunkReads = chunkReads_.value();
  s.batchReads = batchReads_.value();
  s.containerLoads = containerLoads_.value();
  s.cacheHits = readCacheHits_.value();
  s.readRetries = readRetries_.value();
  s.coldReads = coldReads_.value();
  s.promotions = promotions_.value();
  return s;
}

size_t ContainerBackupStore::containerCount() const {
  std::lock_guard lock(mu_);
  return liveContainerIds_.size();
}

void ContainerBackupStore::putBlob(const std::string& name, ByteView bytes) {
  std::lock_guard lock(mu_);
  index_->put(blobKey(name), bytes);
}

std::optional<ByteVec> ContainerBackupStore::getBlob(const std::string& name) {
  std::lock_guard lock(mu_);
  return index_->get(blobKey(name));
}

bool ContainerBackupStore::eraseBlob(const std::string& name) {
  std::lock_guard lock(mu_);
  return index_->erase(blobKey(name));
}

std::vector<std::string> ContainerBackupStore::listNamesLocked(
    char prefix) const {
  std::vector<std::string> names;
  index_->forEach([&names, prefix](ByteView key, ByteView) {
    if (!key.empty() && key[0] == static_cast<uint8_t>(prefix)) {
      names.emplace_back(reinterpret_cast<const char*>(key.data()) + 1,
                         key.size() - 1);
    }
  });
  return names;
}

std::vector<std::string> ContainerBackupStore::listBlobs() {
  std::lock_guard lock(mu_);
  return listNamesLocked(kBlobKeyPrefix);
}

void ContainerBackupStore::adjustRefsLocked(Fp fp, int64_t delta) {
  const auto value = index_->get(chunkKey(fp));
  if (!value) {
    // Dropping a reference to a chunk that no longer exists (e.g. lost to a
    // corrupt container and already reported by recovery) is a no-op;
    // adding one is a caller error.
    if (delta <= 0) return;
    throw std::runtime_error("BackupStore: reference to unknown chunk " +
                             fpToHex(fp));
  }
  ChunkEntry e = decodeChunkEntry(*value);
  const int64_t refs = static_cast<int64_t>(e.refs) + delta;
  // Clamp defensively: an underflow means a corrupt manifest, and verify()
  // reports the accounting mismatch rather than deletion failing halfway.
  e.refs = refs < 0 ? 0 : static_cast<uint32_t>(refs);
  index_->put(chunkKey(fp), encodeChunkEntry(e));
}

void ContainerBackupStore::recordBackup(const std::string& name,
                                        std::span<const Fp> chunkRefs) {
  const Lsn commitLsn = stageRecordBackup(name, chunkRefs);
  // Durable commit, outside the metadata lock: when recordBackup returns,
  // the manifest survives power loss. Concurrent committers block here
  // together and one group fdatasync covers all of them (the group-commit
  // WAL's whole point) instead of serializing an fsync each under mu_.
  if (logKv_ != nullptr) logKv_->sync(commitLsn);
}

void ContainerBackupStore::recordBackupDeferred(const std::string& name,
                                                std::span<const Fp> chunkRefs) {
  // Same staging, durability deferred to the caller's syncMetadataAsync()/
  // flush(): the pipelined form the server's commit path rides.
  stageRecordBackup(name, chunkRefs);
}

void ContainerBackupStore::syncMetadataAsync(
    std::function<void(bool ok)> done) {
  if (logKv_ == nullptr) {
    done(true);  // volatile backend: nothing to make durable
    return;
  }
  Lsn lsn = 0;
  {
    std::lock_guard lock(mu_);
    lsn = logKv_->appendedLsn();
  }
  logKv_->syncAsync(lsn, std::move(done));
}

uint64_t ContainerBackupStore::stageRecordBackup(
    const std::string& name, std::span<const Fp> chunkRefs) {
  Lsn commitLsn = 0;
  {
    std::lock_guard lock(mu_);
    sealOpenContainerLocked();
    std::unordered_map<Fp, int64_t, FpHash> deltas;
    for (const Fp fp : chunkRefs) ++deltas[fp];
    // Validate every reference before mutating anything, so a bad manifest
    // cannot leave refcounts half-applied.
    for (const auto& [fp, n] : deltas) {
      if (!index_->contains(chunkKey(fp)))
        throw std::runtime_error("recordBackup: chunk not stored: " +
                                 fpToHex(fp));
    }
    // Re-recording a name replaces its references. The old manifest is never
    // erased first: refcounts move by delta and the manifest key is swapped
    // in one put (atomic at the log-record level), so a crash at any point
    // leaves either the old or the new manifest — never none. Refcount drift
    // from a crash mid-delta is reconciled against the manifests on the next
    // open.
    for (const Fp fp : backupRefsLocked(name).value_or(std::vector<Fp>{}))
      --deltas[fp];
    for (const auto& [fp, delta] : deltas)
      if (delta != 0) adjustRefsLocked(fp, delta);
    index_->put(manifestKey(name), serializeManifest(chunkRefs));
    registry_.counter("store.backups_recorded").add();
    if (logKv_ != nullptr) commitLsn = logKv_->appendedLsn();
  }
  return commitLsn;
}

std::optional<std::vector<Fp>> ContainerBackupStore::backupRefsLocked(
    const std::string& name) {
  const auto blob = index_->get(manifestKey(name));
  if (!blob) return std::nullopt;
  return parseManifest(*blob);
}

std::optional<std::vector<Fp>> ContainerBackupStore::backupRefs(
    const std::string& name) {
  std::lock_guard lock(mu_);
  return backupRefsLocked(name);
}

bool ContainerBackupStore::releaseBackup(const std::string& name) {
  Lsn commitLsn = 0;
  {
    std::lock_guard lock(mu_);
    const auto blob = index_->get(manifestKey(name));
    if (!blob) return false;
    std::unordered_map<Fp, uint32_t, FpHash> counts;
    for (const Fp fp : parseManifest(*blob)) ++counts[fp];
    for (const auto& [fp, n] : counts)
      adjustRefsLocked(fp, -static_cast<int64_t>(n));
    index_->erase(manifestKey(name));
    registry_.counter("store.backups_released").add();
    if (logKv_ != nullptr) commitLsn = logKv_->appendedLsn();
  }
  // Durable delete, group-committed outside the lock (see recordBackup).
  if (logKv_ != nullptr) logKv_->sync(commitLsn);
  return true;
}

std::vector<std::string> ContainerBackupStore::listBackups() {
  std::lock_guard lock(mu_);
  return listNamesLocked(kManifestKeyPrefix);
}

std::unordered_map<uint32_t,
                   std::vector<std::pair<Fp, ContainerBackupStore::ChunkEntry>>>
ContainerBackupStore::chunkEntriesByContainerLocked() {
  std::unordered_map<uint32_t, std::vector<std::pair<Fp, ChunkEntry>>> result;
  index_->forEach([&result](ByteView key, ByteView value) {
    if (key.empty() || key[0] != static_cast<uint8_t>(kChunkKeyPrefix)) return;
    const Fp fp = getU64(key, 1);
    const ChunkEntry e = decodeChunkEntry(value);
    result[e.containerId].emplace_back(fp, e);
  });
  return result;
}

void ContainerBackupStore::flushIndexLocked() {
  if (logKv_ != nullptr) logKv_->flush();
}

GcStats ContainerBackupStore::collectGarbage() {
  // GC invariants:
  //  (1) a chunk is reclaimed only when its reference count is zero — no
  //      recorded backup manifest references it;
  //  (2) relocated live chunks are sealed and indexed (phase 2) before any
  //      old container is deleted (phase 3), so a crash at any point leaves
  //      every live chunk reachable — at worst duplicated in a container
  //      that recovery treats as orphaned and removes.
  //
  // The whole pass holds the metadata lock, so a concurrent batched read
  // observes either the pre-GC index (old containers still on disk until
  // phase 3; a vanished file triggers its re-resolve + retry path) or the
  // fully compacted one — never a half-applied relocation.
  GcStats gc;
  obs::ObsSpan span(&gcUs_, "store.gc", "store");
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  auto byContainer = chunkEntriesByContainerLocked();

  // Phase 1: copy live chunks out of every container that holds dead ones.
  // The index map has no order, so visit the doomed containers in ascending
  // id and each one's live chunks in entry order: relocated chunks keep the
  // order they were written in, and a retained backup's chunks stay
  // contiguous in the new containers instead of scattering a little more
  // with every GC.
  std::vector<uint32_t> doomed;
  for (const auto& [id, entries] : byContainer) {
    if (std::any_of(entries.begin(), entries.end(),
                    [](const auto& entry) { return entry.second.refs == 0; }))
      doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());
  for (const uint32_t id : doomed) {
    auto& entries = byContainer[id];
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.second.entryIndex < b.second.entryIndex;
              });
    const auto container = loadContainerLocked(id);
    for (const auto& [fp, e] : entries) {
      if (e.refs == 0) continue;
      if (e.entryIndex >= container->entries.size() ||
          container->entries[e.entryIndex].fp != fp)
        throw std::runtime_error("gc: container/index mismatch for " +
                                 fpToHex(fp));
      const ContainerEntry& ce = container->entries[e.entryIndex];
      if (ce.dataOffset + ce.size > container->data.size())
        throw std::runtime_error("gc: chunk payload out of range for " +
                                 fpToHex(fp));
      stageChunkLocked(fp,
                       ByteView(container->data).subspan(ce.dataOffset,
                                                         ce.size),
                       e.refs);
      ++gc.chunksRelocated;
    }
  }

  // Phase 2: persist the relocations before anything is deleted.
  sealOpenContainerLocked();
  flushIndexLocked();

  // Phase 3: drop dead index entries and reclaim the doomed containers.
  for (const uint32_t id : doomed) {
    for (const auto& [fp, e] : byContainer[id]) {
      if (e.refs != 0) continue;
      index_->erase(chunkKey(fp));
      uniqueChunks_.sub(1);
      storedBytes_.sub(e.size);
      ++gc.chunksReclaimed;
      gc.bytesReclaimed += e.size;
    }
    dropContainerLocked(id);
    ++gc.containersCompacted;
  }

  // Phase 4 (optional): demote cold containers until the hot tier's
  // physical bytes drop to the configured target. Oldest-unread containers
  // go first (admission order breaks ties); the keepHotRecent newest ids
  // stay hot so an incremental workload's tail does not bounce straight
  // back. Runs after compaction so doomed containers are never demoted.
  if (options_.coldTier.demoteOnGc && cold_ != nullptr) {
    std::unordered_map<uint32_t, uint64_t> readGen;
    {
      std::lock_guard tierLock(tierMu_);
      readGen = lastReadGen_;
    }
    std::vector<uint32_t> hot;
    uint64_t hotPhysical = 0;
    for (const uint32_t id : liveContainerIds_) {
      if (coldContainerIds_.contains(id)) continue;
      hot.push_back(id);
      const auto it = physicalBytes_.find(id);
      if (it != physicalBytes_.end()) hotPhysical += it->second;
    }
    std::sort(hot.begin(), hot.end());
    const size_t keep =
        std::min<size_t>(hot.size(), options_.coldTier.keepHotRecent);
    hot.resize(hot.size() - keep);  // newest ids are never demoted
    std::stable_sort(hot.begin(), hot.end(),
                     [&readGen](uint32_t a, uint32_t b) {
                       const auto ga = readGen.find(a);
                       const auto gb = readGen.find(b);
                       const uint64_t va =
                           ga == readGen.end() ? 0 : ga->second;
                       const uint64_t vb =
                           gb == readGen.end() ? 0 : gb->second;
                       return va != vb ? va < vb : a < b;
                     });
    for (const uint32_t id : hot) {
      if (hotPhysical <= options_.coldTier.hotBytes) break;
      const auto it = physicalBytes_.find(id);
      const uint64_t physical = it == physicalBytes_.end() ? 0 : it->second;
      demoteContainerLocked(id);
      hotPhysical -= physical;
      ++gc.containersDemoted;
    }
  }

  // Phase 5: checkpoint the index. The checkpoint snapshots only live
  // records (reclaiming the dead ones GC just created), makes everything
  // durable, and rotates the WAL so the next open replays an empty tail.
  if (logKv_ != nullptr) logKv_->checkpoint();
  registry_.counter("store.gc_runs").add();
  registry_.counter("store.gc_relocated_chunks").add(gc.chunksRelocated);
  registry_.counter("store.gc_reclaimed_chunks").add(gc.chunksReclaimed);
  registry_.counter("store.gc_reclaimed_bytes").add(gc.bytesReclaimed);
  registry_.counter("store.gc_compacted_containers")
      .add(gc.containersCompacted);
  return gc;
}

StoreCheckReport ContainerBackupStore::verify() {
  StoreCheckReport report;
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  std::unordered_map<uint32_t, std::vector<std::pair<Fp, ChunkEntry>>>
      byContainer;
  try {
    byContainer = chunkEntriesByContainerLocked();
  } catch (const std::exception& e) {
    report.errors.emplace_back(std::string("index: ") + e.what());
    return report;
  }

  // Manifest accounting: expected refcount per fingerprint.
  std::unordered_map<Fp, uint64_t, FpHash> manifestRefs;
  for (const std::string& name : listNamesLocked(kManifestKeyPrefix)) {
    const auto blob = index_->get(manifestKey(name));
    if (!blob) continue;  // racing deletion; nothing to check
    try {
      for (const Fp fp : parseManifest(*blob)) ++manifestRefs[fp];
      ++report.backupsChecked;
    } catch (const std::exception& e) {
      report.errors.emplace_back("backup '" + name + "': " + e.what());
    }
  }

  // Every index entry must resolve to a matching container entry.
  std::unordered_map<Fp, uint32_t, FpHash> indexedRefs;
  for (const auto& [id, entries] : byContainer) {
    std::shared_ptr<const Container> container;
    try {
      container = loadContainerLocked(id);
      ++report.containersChecked;
    } catch (const std::exception& e) {
      report.errors.emplace_back("container " + std::to_string(id) + ": " +
                                 e.what());
    }
    for (const auto& [fp, e] : entries) {
      ++report.chunksChecked;
      indexedRefs[fp] = e.refs;
      if (!container) continue;
      if (e.entryIndex >= container->entries.size()) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": entry index out of range");
        continue;
      }
      const ContainerEntry& ce = container->entries[e.entryIndex];
      if (ce.fp != fp) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": fingerprint mismatch in container");
      } else if (ce.size != e.size) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": size mismatch in container");
      } else if (ce.dataOffset + ce.size > container->data.size()) {
        report.errors.emplace_back("chunk " + fpToHex(fp) +
                                   ": payload out of range");
      }
    }
  }

  // Reference counts must equal the manifest occurrence sums.
  for (const auto& [fp, n] : manifestRefs) {
    if (!indexedRefs.contains(fp))
      report.errors.emplace_back("manifest references missing chunk " +
                                 fpToHex(fp));
  }
  for (const auto& [fp, refs] : indexedRefs) {
    const auto it = manifestRefs.find(fp);
    const uint64_t expected = it == manifestRefs.end() ? 0 : it->second;
    if (refs != expected)
      report.errors.emplace_back(
          "refcount mismatch for " + fpToHex(fp) + ": index says " +
          std::to_string(refs) + ", manifests say " + std::to_string(expected));
  }

  // File mode: every container file on disk — either tier — must be
  // referenced.
  if (!dir_.empty()) {
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ + "/containers")) {
      const auto id = containerIdFromPath(entry.path());
      if (!id) continue;
      if (!byContainer.contains(*id))
        report.errors.emplace_back("orphan container file: " +
                                   entry.path().string());
    }
    if (cold_) {
      for (const std::string& key : cold_->list()) {
        const auto id = containerIdFromPath(std::filesystem::path(key));
        if (!id) continue;
        if (!byContainer.contains(*id))
          report.errors.emplace_back("orphan cold container object: " + key);
      }
    }
  }
  return report;
}

StoreRecoveryStats ContainerBackupStore::recoverPersistentState() {
  FDD_CHECK_MSG(!dir_.empty(), "recovery only applies to persistent stores");
  StoreRecoveryStats rs;
  std::lock_guard lock(mu_);
  // The LogKv constructor already replayed the index log and truncated any
  // torn tail; cross-check the container directory against that index.
  const auto byContainer = chunkEntriesByContainerLocked();
  nextContainerId_ = 0;
  for (const auto& [id, entries] : byContainer)
    nextContainerId_ = std::max(nextContainerId_, id + 1);

  std::unordered_set<uint32_t> onHot;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/containers")) {
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path());  // torn atomic write
      continue;
    }
    const auto id = containerIdFromPath(entry.path());
    if (!id) continue;
    onHot.insert(*id);
    nextContainerId_ = std::max(nextContainerId_, *id + 1);
  }
  // Tier assignment is never persisted: discover the cold tier's containers
  // by listing it (the LocalObjectStore constructor already swept its torn
  // .tmp puts). Quarantined *.corrupt objects fail the id parse and are
  // left alone.
  std::unordered_set<uint32_t> onCold;
  if (cold_) {
    for (const std::string& key : cold_->list()) {
      const auto id = containerIdFromPath(std::filesystem::path(key));
      if (!id) continue;
      onCold.insert(*id);
      nextContainerId_ = std::max(nextContainerId_, *id + 1);
    }
  }

  std::unordered_set<uint32_t> onDisk = onHot;
  onDisk.insert(onCold.begin(), onCold.end());
  for (const uint32_t id : onDisk) {
    const bool hot = onHot.contains(id);
    const bool coldCopy = onCold.contains(id);
    if (!byContainer.contains(id)) {
      // No index entry references it: a crash landed between the container
      // write and its index puts, or mid-GC after relocation.
      if (hot) std::filesystem::remove(containerPath(id));
      if (coldCopy) cold_->remove(coldKey(id));
      ++rs.orphanContainersRemoved;
      continue;
    }
    // Prefer the hot copy. Both tiers holding one (a crash between the two
    // halves of a demotion or promotion) means the copies are identical —
    // both transitions complete the new copy before removing the old — so
    // keeping hot and dropping cold is always safe. Validation parses the
    // full frame (CRC + structure + codec byte), so an unreadable codec or
    // a corrupt compressed stream quarantines exactly like torn bytes.
    // Valid containers are deliberately NOT admitted to the block cache: a
    // freshly opened store starts with a cold cache, so read-count
    // accounting and cold-cache benchmarks measure the read path, not
    // recovery's validation pass.
    bool valid = false;
    if (hot) {
      uint64_t physical = 0;
      try {
        const ByteVec frame = readFile(containerPath(id));
        physical = frame.size();
        valid = parseContainer(frame).id == id;
      } catch (const std::exception&) {
      }
      if (valid) {
        physicalBytes_[id] = physical;
        hotContainers_.add(1);
        hotBytes_.add(static_cast<int64_t>(physical));
        if (coldCopy) cold_->remove(coldKey(id));  // stale duplicate
      } else {
        ++rs.corruptContainers;
        // Keep the bytes for forensics, but out of the recovery path.
        std::filesystem::rename(containerPath(id),
                                containerPath(id) + ".corrupt");
      }
    }
    if (!valid && coldCopy) {
      uint64_t physical = 0;
      try {
        const ByteVec frame = cold_->get(coldKey(id));
        physical = frame.size();
        valid = parseContainer(frame).id == id;
      } catch (const std::exception&) {
      }
      if (valid) {
        coldContainerIds_.insert(id);
        physicalBytes_[id] = physical;
        coldContainers_.add(1);
        coldBytes_.add(static_cast<int64_t>(physical));
      } else {
        ++rs.corruptContainers;
        cold_->rename(coldKey(id), coldKey(id) + ".corrupt");
      }
    }
    if (valid) {
      ++rs.containersValidated;
      liveContainerIds_.insert(id);
    }
  }

  // Drop index entries whose container is missing or failed validation;
  // manifests referencing them now dangle, which verify() reports as the
  // data loss it is.
  for (const auto& [id, entries] : byContainer) {
    if (liveContainerIds_.contains(id)) continue;
    for (const auto& [fp, e] : entries) {
      index_->erase(chunkKey(fp));
      ++rs.entriesDropped;
    }
  }

  // Reconcile reference counts against the manifests, which are the ground
  // truth (each manifest swap is a single atomic log record, while the
  // refcount deltas around it are not). A crash inside recordBackup /
  // releaseBackup / commitBackup leaves drift that this repairs, so GC after
  // reopen can never reclaim a chunk a surviving manifest references.
  std::unordered_map<Fp, uint64_t, FpHash> expectedRefs;
  for (const std::string& name : listNamesLocked(kManifestKeyPrefix)) {
    const auto refs = backupRefsLocked(name);
    if (!refs) continue;
    for (const Fp fp : *refs) ++expectedRefs[fp];
  }
  std::vector<std::pair<Fp, ChunkEntry>> repairs;
  index_->forEach([&](ByteView key, ByteView value) {
    if (key.empty() || key[0] != static_cast<uint8_t>(kChunkKeyPrefix)) return;
    const Fp fp = getU64(key, 1);
    ChunkEntry e = decodeChunkEntry(value);
    const auto it = expectedRefs.find(fp);
    const uint64_t expected = it == expectedRefs.end() ? 0 : it->second;
    if (e.refs != expected) {
      e.refs = static_cast<uint32_t>(expected);
      repairs.emplace_back(fp, e);
    }
  });
  for (const auto& [fp, e] : repairs)
    index_->put(chunkKey(fp), encodeChunkEntry(e));
  rs.refcountsRepaired = repairs.size();

  // Rebuild stats from the surviving index. The registry is fresh for this
  // instance (reset-on-reopen), so the gauges start at zero here.
  index_->forEach([this](ByteView key, ByteView value) {
    if (!key.empty() && key[0] == static_cast<uint8_t>(kChunkKeyPrefix)) {
      uniqueChunks_.add(1);
      storedBytes_.add(decodeChunkEntry(value).size);
    }
  });
  if (rs.entriesDropped > 0 || rs.orphanContainersRemoved > 0 ||
      rs.refcountsRepaired > 0)
    flushIndexLocked();
  return rs;
}

void ContainerBackupStore::flush() {
  std::lock_guard lock(mu_);
  sealOpenContainerLocked();
  flushIndexLocked();
}

namespace {

StoreOptions memStoreOptions(uint64_t containerBytes) {
  StoreOptions o;
  o.containerBytes = containerBytes;
  o.blockCacheBytes = 0;  // resident containers ARE the memory backend's cache
  return o;
}

}  // namespace

MemBackupStore::MemBackupStore(uint64_t containerBytes)
    : ContainerBackupStore(std::make_unique<MemKv>(), "",
                           memStoreOptions(containerBytes)) {}

}  // namespace freqdedup
