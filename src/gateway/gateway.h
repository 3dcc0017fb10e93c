// Multi-tenant gateway fronting a pool of sharded CYRUS clients.
//
// The paper's client library assumes one user per process; a deployment
// that terminates many tenants in a shared service needs an extra tier.
// GatewayService supplies it:
//
//   - sharding: metadata (chunk tables + version trees) is split across N
//     shard workers, each backed by its own pipelined CyrusClient; a
//     request routes by consistent hashing over the tenant-qualified file
//     path (ShardMap), so tenants spread across every shard and one hot
//     tenant cannot pin a single metadata store;
//   - tenancy: each tenant gets a private namespace ("t/<tenant>/<path>")
//     and a quota contract (ops/s, upload bytes/s, stored bytes) enforced
//     by virtual-time token buckets (admission.h). Rejections are *typed*
//     (RejectReason) and fail fast, before any shard work;
//   - backpressure: every tenant owns an in-flight window. When a shard's
//     queue depth or the tenant's quota burn crosses the high-water mark,
//     the window halves; calm periods recover it one slot at a time -
//     AIMD, the same discipline TCP uses, so overload sheds load smoothly
//     instead of collapsing;
//   - shard queue model: shards track a virtual busy-until horizon fed by
//     per-op overhead and byte service rates, giving deterministic queue
//     depths and latencies under src/sim virtual time (the 10k-client soak
//     runs open-loop on an EventQueue with no real threads).
//
// Instrumented with cyrus_gateway_* metrics and per-request trace spans
// (admit -> route -> execute). Thread-safe; shard executions on different
// shards proceed in parallel.
#ifndef SRC_GATEWAY_GATEWAY_H_
#define SRC_GATEWAY_GATEWAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/gateway/admission.h"
#include "src/gateway/shard_map.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace cyrus {

struct GatewayOptions {
  // Ring points per shard in the shard map.
  uint32_t virtual_points = 64;

  // Quotas assumed by RegisterTenant when the caller passes none.
  TenantQuotas default_quotas;

  // Backpressure window bounds (concurrent in-flight ops per tenant).
  uint32_t max_tenant_window = 64;
  uint32_t min_tenant_window = 2;

  // Shard queue depth that triggers window shrink / allows regrowth.
  size_t shard_depth_high = 32;
  size_t shard_depth_low = 8;
  // Fraction of the tenant's op bucket consumed (1 - available/capacity)
  // past which the window also shrinks.
  double quota_burn_high = 0.9;
  // Burn fraction past which *prefetch-tagged* ops are shed (typed
  // kPrefetchShed) before consuming any tokens - deliberately far below
  // quota_burn_high, so readahead yields to foreground load first.
  double prefetch_shed_burn = 0.5;
  // Queue depth past which requests are refused outright (typed
  // kShardOverloaded) instead of queued.
  size_t shard_queue_reject_depth = 256;

  // Virtual service model per shard: each op costs
  // `shard_op_overhead_s + bytes / shard_bytes_per_sec` of shard time.
  double shard_op_overhead_s = 0.002;
  double shard_bytes_per_sec = 64.0 * 1024 * 1024;

  // Per-tenant labeled metrics (ops, rejects, window). Off for huge tenant
  // counts - the soak keeps cardinality at the per-reason aggregates.
  bool per_tenant_metrics = true;

  obs::MetricsRegistry* metrics = nullptr;  // nullptr -> Default()
  obs::TraceCollector* traces = nullptr;    // nullptr -> tracing off
};

// Point-in-time gateway counters (cheap aggregate view; the full labeled
// series live in the metrics registry).
struct GatewayStats {
  uint64_t ops_total = 0;
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;   // storage-layer errors (not rejects)
  uint64_t rejects_total = 0;
  std::map<std::string, uint64_t> rejects_by_reason;
  std::map<int, size_t> shard_queue_depth;
  std::map<std::string, uint32_t> tenant_window;
  std::map<std::string, uint64_t> tenant_stored_bytes;
  size_t num_tenants = 0;
  size_t num_shards = 0;
  // Cross-user dedup economics (zeros when the shard clients run without a
  // ShareIndex). Tenants are billed `tenant_stored_bytes` - *logical*
  // bytes - while the deployment pays `dedup_physical_bytes`; the gap is
  // the operator's dedup margin.
  bool dedup_enabled = false;
  uint64_t dedup_logical_bytes = 0;
  uint64_t dedup_unique_bytes = 0;
  uint64_t dedup_physical_bytes = 0;
  double dedup_ratio = 1.0;
  double dedup_hit_rate = 0.0;
  // Share-digest mismatches observed by the shard clients, keyed by the
  // offending CSP's connector id - the "who is feeding us corrupt bytes"
  // view an operator checks before quarantining a provider.
  uint64_t integrity_failures_total = 0;
  std::map<std::string, uint64_t> integrity_failures_by_csp;
};

class GatewayService {
 public:
  // One shard worker per client; shard i is backed by shard_clients[i].
  // Requires at least one client.
  static Result<std::unique_ptr<GatewayService>> Create(
      GatewayOptions options,
      std::vector<std::unique_ptr<CyrusClient>> shard_clients);

  // Registers `tenant` with explicit quotas (or the default contract).
  // Tenant names must be non-empty and '/'-free (they become a namespace
  // path segment).
  Status RegisterTenant(std::string_view tenant, const TenantQuotas& quotas);
  Status RegisterTenant(std::string_view tenant);

  // Tenant-scoped file operations. Every call runs the full admit ->
  // route -> execute path and can fail with a typed reject (admission.h).
  Result<PutResult> Put(std::string_view tenant, std::string_view path,
                        ByteSpan content);
  Result<GetResult> Get(std::string_view tenant, std::string_view path);
  // Range read: bytes [offset, offset+len) of the tenant file, clamped to
  // the file end (the REST layer turns it into a 206). `prefetch` tags the
  // op as speculative readahead: admission sheds it first - typed
  // kPrefetchShed, *before* it consumes any quota tokens - when the
  // tenant's window is half used, its op-bucket burn passes
  // prefetch_shed_burn, or the target shard is past shard_depth_high.
  Result<GetResult> GetRange(std::string_view tenant, std::string_view path,
                             uint64_t offset, uint64_t len,
                             bool prefetch = false);
  Status Delete(std::string_view tenant, std::string_view path);
  Result<std::vector<FileListing>> List(std::string_view tenant,
                                        std::string_view prefix);

  // Virtual clock (seconds) driving token buckets and the shard queue
  // model. Benches advance it from the EventQueue; defaults to 0 and
  // never moves on its own.
  void set_time(double now_s);
  double now() const;

  // Shard that `tenant`/`path` routes to (no admission, no residency
  // update).
  Result<int> ShardFor(std::string_view tenant, std::string_view path) const;

  // Current backpressure window for `tenant` (0 if unknown).
  uint32_t TenantWindow(std::string_view tenant) const;

  // Modeled latency of the most recently admitted request (seconds).
  // Benches driving the gateway from a single virtual-time loop sample
  // this after each call; under concurrency prefer the latency histogram.
  double last_virtual_latency_s() const;

  GatewayStats Stats() const;

  size_t num_shards() const { return shards_.size(); }

  // The namespace-qualified name a tenant file is stored under.
  static std::string QualifiedPath(std::string_view tenant,
                                   std::string_view path);

 private:
  struct Tenant {
    std::string name;
    TenantQuotas quotas;
    TokenBucket op_bucket;
    TokenBucket byte_bucket;
    uint32_t window;
    uint32_t in_flight = 0;
    uint64_t stored_bytes = 0;
    std::map<std::string, uint64_t> file_sizes;  // storage accounting
    obs::Counter* ops = nullptr;      // per-tenant metrics (optional)
    obs::Gauge* window_gauge = nullptr;

    Tenant(std::string name, const TenantQuotas& q, uint32_t window);
  };

  struct Shard {
    std::unique_ptr<CyrusClient> client;
    std::mutex exec_mutex;            // serializes client calls per shard
    double busy_until = 0.0;          // virtual service horizon
    std::multiset<double> completions;  // in-model finish times (depth)
    obs::Gauge* depth_gauge = nullptr;
  };

  // Admission verdict + routing decision, computed under the state lock.
  struct Admission {
    Status status;        // ok or typed reject
    Tenant* tenant = nullptr;
    int shard = -1;
    double virtual_latency_s = 0.0;
  };

  GatewayService(GatewayOptions options,
                 std::vector<std::unique_ptr<CyrusClient>> shard_clients);

  // is_put: charges the byte bucket and storage ceiling for `bytes`.
  // prefetch: run the shed checks first; a shed consumes nothing.
  // Takes mutex_ internally.
  Admission Admit(std::string_view tenant, std::string_view path,
                  bool is_put, uint64_t bytes, bool prefetch = false);
  void Complete(Tenant* tenant, int shard, bool ok);
  void AdjustWindow(Tenant* tenant, int shard);
  size_t ShardDepthLocked(Shard& shard) const;
  void RecordReject(std::string_view tenant, const Status& status,
                    std::string_view op);
  void RecordResult(std::string_view op, bool ok, double latency_s);

  GatewayOptions options_;
  obs::MetricsRegistry* metrics_;

  mutable std::mutex mutex_;  // tenants, shard map, queue model
  ShardMap shard_map_;
  std::map<int, std::unique_ptr<Shard>> shards_;
  std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants_;
  double now_s_ = 0.0;
  double last_latency_s_ = 0.0;

  // Aggregate counters mirrored into GatewayStats.
  uint64_t ops_total_ = 0;
  uint64_t ops_ok_ = 0;
  uint64_t ops_failed_ = 0;
  uint64_t rejects_total_ = 0;
  std::map<std::string, uint64_t> rejects_by_reason_;

  // Cached instruments (reject counters indexed by RejectReason).
  obs::Counter* reject_counters_[7] = {};
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Histogram* latency_put_ = nullptr;
  obs::Histogram* latency_get_ = nullptr;
  obs::Histogram* latency_other_ = nullptr;
};

}  // namespace cyrus

#endif  // SRC_GATEWAY_GATEWAY_H_
