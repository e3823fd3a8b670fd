// daemon-tenants: multi-tenant first-time ingest through freqdedupd. An
// in-process FreqDedupServer with default options (MinHash + scrambling, 4
// request workers) listens on a unix socket; four RemoteDedupClient
// connections, one tenant each, run closed loops from four threads. Each
// tenant first backs up fresh ~1 MiB objects (tenant-private random bytes
// around a run copied from a pool all tenants share), each committed
// durably, then restores its most recent objects in rounds.
#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "probes.h"
#include "server/client_conn.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace freqdedup;
using server::FreqDedupServer;
using server::RemoteDedupClient;

constexpr int kTenants = 4;
constexpr size_t kObjectBytes = 1 << 20;
/// The shared pool: runs every tenant copies into its objects. A run is
/// 3/8 of an object, long enough that a MinHash segment's minimum chunk
/// often falls inside it — such segments get the same key in every tenant
/// and deduplicate across tenants — while most chunks stay new.
constexpr size_t kPoolRuns = 16;
constexpr size_t kRunBytes = 384 << 10;
/// Most recent objects per tenant that the restore phase cycles through:
/// 4 x 8 MiB of objects, whose containers fit the 64 MiB block cache.
constexpr size_t kWorkingSet = 8;
/// Share of --seconds given to the backup phase; the rest restores.
constexpr double kBackupShare = 0.6;

void fillRandom(Rng& rng, uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t v = rng.next();
    std::memcpy(out + i, &v, 8);
  }
  for (; i < n; ++i) out[i] = static_cast<uint8_t>(rng.next());
}

/// Object `index` of `tenant`: a private prefix, one pool run, and private
/// bytes up to kObjectBytes. A function of (seed, tenant, index) alone.
ByteVec makeObject(uint64_t seed, int tenant, uint64_t index,
                   const std::vector<ByteVec>& pool) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(tenant) * 1000003 +
          index);
  ByteVec object(kObjectBytes);
  const size_t prefix = static_cast<size_t>(rng.uniformInt(0, 64 << 10));
  const ByteVec& run = pool[rng.pickIndex(pool.size())];
  fillRandom(rng, object.data(), prefix);
  std::memcpy(object.data() + prefix, run.data(), run.size());
  fillRandom(rng, object.data() + prefix + run.size(),
             kObjectBytes - prefix - run.size());
  return object;
}

std::string tenantName(int t) { return "tenant-" + std::to_string(t); }
std::string passphrase(int t) { return "perfbench-pass-" + std::to_string(t); }
std::string objectName(uint64_t index) { return "obj-" + std::to_string(index); }

/// Everything set-up creates. Clients go before the server.
struct Daemon {
  std::vector<ByteVec> pool;
  std::unique_ptr<FreqDedupServer> server;
  std::vector<std::unique_ptr<RemoteDedupClient>> clients;
};

std::unique_ptr<Daemon> setUp(const Options& options, const std::string& dir) {
  auto d = std::make_unique<Daemon>();
  Rng rng(options.seed ^ 0x900d);
  for (size_t i = 0; i < kPoolRuns; ++i) {
    ByteVec run(kRunBytes);
    fillRandom(rng, run.data(), run.size());
    d->pool.push_back(std::move(run));
  }
  server::ServerOptions serverOptions;
  serverOptions.address = "unix:" + dir + ".sock";
  d->server = std::make_unique<FreqDedupServer>(dir, serverOptions);
  d->server->start();
  for (int t = 0; t < kTenants; ++t) {
    d->clients.push_back(std::make_unique<RemoteDedupClient>(
        serverOptions.address, tenantName(t), passphrase(t)));
  }
  return d;
}

void tearDown(std::unique_ptr<Daemon>& d, const std::string& dir) {
  d->clients.clear();
  d->server->stop();
  d.reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove(dir + ".sock");
}

/// Per-tenant state and samples; each is touched by its own thread only.
struct Tenant {
  uint64_t nextIndex = 0;
  std::vector<std::string> names;
  std::deque<std::pair<std::string, ByteVec>> recent;  // the working set
  std::vector<double> backupMs, appendMs, finishMs, restoreMs;
  double backupBytes = 0, restoreBytes = 0;
  uint64_t crossTenantDuplicates = 0;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::string error;
};

/// Runs `body(tenant, client)` on one thread per tenant until every thread
/// has passed `deadlineNs`; returns the phase's wall time in seconds.
template <typename Body>
double runPhase(Daemon& d, std::vector<Tenant>& tenants, uint64_t deadlineNs,
                Body body) {
  const uint64_t start = nowNs();
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Tenant& tenant = tenants[static_cast<size_t>(t)];
      while (tenant.error.empty() && nowNs() < deadlineNs) {
        ++tenant.attempted;
        try {
          body(tenant, t, *d.clients[static_cast<size_t>(t)]);
        } catch (const std::exception& e) {
          ++tenant.failed;
          tenant.error = e.what();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return secondsSince(start);
}

/// Highest-percentile tail the sample supports: p95 needs 200 samples (10
/// beyond it); with fewer the tail is not reported (0).
double tailP95(const std::vector<double>& samples) {
  return samples.size() >= 200 ? quantile(samples, 0.95) : 0;
}

std::vector<double> gather(const std::vector<Tenant>& tenants,
                           std::vector<double> Tenant::*field) {
  std::vector<double> all;
  for (const Tenant& t : tenants)
    all.insert(all.end(), (t.*field).begin(), (t.*field).end());
  return all;
}

}  // namespace

RunResult runDaemonTenants(const Options& options) {
  RunResult result;
  addPerLayerDefaults(result);
  SpanLog log(options.trace);

  std::vector<double> setupSeconds;
  std::unique_ptr<Daemon> daemon;
  std::string dir;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (daemon) tearDown(daemon, dir);
    dir = "daemon-" + std::to_string(k);
    const uint64_t start = nowNs();
    daemon = setUp(options, dir);
    setupSeconds.push_back(secondsSince(start));
  }
  BackupStore& store = daemon->server->store();
  std::vector<Tenant> tenants(kTenants);

  const obs::MetricsSnapshot globalStart = obs::MetricsRegistry::global().snapshot();
  const obs::MetricsSnapshot storeStart = store.metricsSnapshot();

  // Backup phase: fresh objects, each opened, appended and finished (the
  // finish reply arrives once the commit is durable).
  const uint64_t backupStart = nowNs();
  const double backupWall = runPhase(
      *daemon, tenants,
      backupStart + static_cast<uint64_t>(options.seconds * kBackupShare * 1e9),
      [&](Tenant& tenant, int t, RemoteDedupClient& client) {
        const uint64_t index = tenant.nextIndex++;
        ByteVec object = makeObject(options.seed, t, index, daemon->pool);
        const std::string name = objectName(index);
        const uint64_t start = nowNs();
        Span span(log, "backup");
        server::RemoteBackup handle;
        {
          Span open(log, "remote.openBackup");
          handle = client.openBackup(name);
        }
        {
          Span append(log, "remote.append");
          client.append(handle, object);
          tenant.appendMs.push_back(static_cast<double>(append.elapsedNs()) * 1e-6);
        }
        server::RemoteBackupResult done;
        {
          Span finish(log, "remote.finishBackup");
          done = client.finishBackup(handle);
          tenant.finishMs.push_back(static_cast<double>(finish.elapsedNs()) * 1e-6);
        }
        tenant.backupMs.push_back(secondsSince(start) * 1e3);
        tenant.backupBytes += static_cast<double>(object.size());
        tenant.crossTenantDuplicates += done.crossTenantDuplicates;
        tenant.names.push_back(name);
        tenant.recent.emplace_back(name, std::move(object));
        if (tenant.recent.size() > kWorkingSet) tenant.recent.pop_front();
      });
  const obs::MetricsSnapshot globalMid = obs::MetricsRegistry::global().snapshot();
  const obs::MetricsSnapshot storeMid = store.metricsSnapshot();
  const StoreReadStats readMid = store.readStats();

  // Restore phase: rounds over each tenant's working set, each restore
  // compared with the bytes that were backed up.
  std::vector<size_t> cursor(kTenants, 0);
  const uint64_t restoreStart = nowNs();
  const double restoreWall = runPhase(
      *daemon, tenants,
      restoreStart +
          static_cast<uint64_t>(options.seconds * (1 - kBackupShare) * 1e9),
      [&](Tenant& tenant, int t, RemoteDedupClient& client) {
        if (tenant.recent.empty())
          throw std::runtime_error("no backed-up object to restore");
        const auto& [name, expected] =
            tenant.recent[cursor[static_cast<size_t>(t)]++ % tenant.recent.size()];
        uint64_t offset = 0;
        bool same = true;
        const uint64_t start = nowNs();
        {
          Span span(log, "remote.restore");
          client.restore(name, [&](ByteView piece) {
            if (same && (offset + piece.size() > expected.size() ||
                         std::memcmp(piece.data(), expected.data() + offset,
                                     piece.size()) != 0))
              same = false;
            offset += piece.size();
          });
        }
        tenant.restoreMs.push_back(secondsSince(start) * 1e3);
        tenant.restoreBytes += static_cast<double>(offset);
        if (!same || offset != expected.size()) ++tenant.mismatches;
      });
  const obs::MetricsSnapshot globalEnd = obs::MetricsRegistry::global().snapshot();
  const obs::MetricsSnapshot storeEnd = store.metricsSnapshot();
  const StoreReadStats readEnd = store.readStats();

  // Checks.
  double backupBytes = 0, restoreBytes = 0;
  uint64_t crossTenant = 0;
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tenant = tenants[static_cast<size_t>(t)];
    result.attempted += tenant.attempted;
    result.failed += tenant.failed;
    if (!tenant.error.empty())
      std::cerr << "perfbench: " << tenantName(t) << ": " << tenant.error << "\n";
    backupBytes += tenant.backupBytes;
    restoreBytes += tenant.restoreBytes;
    crossTenant += tenant.crossTenantDuplicates;
    result.check(tenant.mismatches == 0,
                 tenantName(t) + ": every restore is byte-identical (" +
                     std::to_string(tenant.mismatches) + " differ)");
    std::vector<std::string> listed =
        daemon->clients[static_cast<size_t>(t)]->listBackups();
    std::vector<std::string> expected = tenant.names;
    std::sort(listed.begin(), listed.end());
    std::sort(expected.begin(), expected.end());
    result.check(listed == expected,
                 tenantName(t) + ": listBackups() returns exactly its own names");
  }
  const BackupStoreStats stats = store.stats();
  result.check(static_cast<double>(stats.storedBytes) < backupBytes,
               "the store holds fewer bytes than were backed up");
  double daemonCrossTenant = 0;
  for (int t = 0; t < kTenants; ++t)
    daemonCrossTenant += counterDelta(
        globalEnd, globalStart,
        "tenant." + tenantName(t) + ".cross_tenant_dedup_hits");
  result.check(daemonCrossTenant > 0, "cross_tenant_dedup_hits > 0");

  const std::vector<double> backupMs = gather(tenants, &Tenant::backupMs);
  const std::vector<double> restoreMs = gather(tenants, &Tenant::restoreMs);
  result.e2e("ingest_mb_s", ratio(backupBytes / 1e6, backupWall), "MB/s");
  result.e2e("ingest_p50_ms", median(backupMs), "ms");
  result.e2e("read_mb_s", ratio(restoreBytes / 1e6, restoreWall), "MB/s");
  result.e2e("read_p50_ms", median(restoreMs), "ms");
  result.e2e("setup_s", median(setupSeconds), "s");
  result.e2e("peak_rss_mb", peakRssMb(), "MB");

  const double loads =
      static_cast<double>(readEnd.containerLoads - readMid.containerLoads);
  const double hits = static_cast<double>(readEnd.cacheHits - readMid.cacheHits);
  result.layer("client.restore_ns_per_byte",
               ratio(histSumDelta(globalEnd, globalMid, "restore.stream_us") * 1e3,
                     counterDelta(globalEnd, globalMid, "restore.bytes_streamed")),
               "ns/B");
  result.layer("storage.container_loads_per_mb", ratio(loads, restoreBytes / 1e6),
               "1/MB");
  result.layer("storage.cache_hit_ratio", ratio(hits, hits + loads), "ratio");
  result.layer("storage.container_write_bytes_per_logical_byte",
               ratio(counterDelta(storeMid, storeStart,
                                  "store.container_physical_bytes"),
                     backupBytes),
               "ratio");
  result.layer("storage.stored_bytes_per_logical_byte",
               ratio(static_cast<double>(stats.storedBytes), backupBytes), "ratio");
  result.layer("kvstore.sync_mean_us",
               histMeanDelta(storeMid, storeStart, "wal.sync_us"), "us");
  result.layer("kvstore.syncs_per_commit",
               ratio(counterDelta(storeMid, storeStart, "wal.syncs"),
                     static_cast<double>(backupMs.size())),
               "ratio");
  result.layer("kvstore.checkpoint_ms",
               histSumDelta(storeEnd, storeStart, "ckpt.write_us") / 1e3, "ms");
  result.layer("server.append_rtt_p50_ms",
               median(gather(tenants, &Tenant::appendMs)), "ms");
  result.layer("server.finish_rtt_p50_ms",
               median(gather(tenants, &Tenant::finishMs)), "ms");
  result.layer("server.request_mean_us",
               histMeanDelta(globalEnd, globalStart, "server.request_us"), "us");
  result.layer("server.wire_bytes_per_logical_byte",
               ratio(counterDelta(globalMid, globalStart, "server.bytes_rx"),
                     backupBytes),
               "ratio");
  result.layer("tail.backup_p95_ms", tailP95(backupMs), "ms");
  result.layer("tail.restore_p95_ms", tailP95(restoreMs), "ms");

  result.info["backups"] = static_cast<double>(backupMs.size());
  result.info["restores"] = static_cast<double>(restoreMs.size());
  result.info["backup_mb"] = backupBytes / 1e6;
  result.info["stored_mb"] = static_cast<double>(stats.storedBytes) / 1e6;
  result.info["cross_tenant_dedup_hits"] = daemonCrossTenant;
  result.info["cross_tenant_duplicates_reported"] = static_cast<double>(crossTenant);
  result.info["backup_p95_ms"] = quantile(backupMs, 0.95);
  result.info["restore_p95_ms"] = quantile(restoreMs, 0.95);
  result.info["spans"] = static_cast<double>(log.size());

  tearDown(daemon, dir);
  if (options.trace && !options.spanPath.empty())
    result.check(log.writeChromeTrace(options.spanPath),
                 "write spans to " + options.spanPath);
  return result;
}

}  // namespace perfbench
