#include "src/gateway/gateway.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"

namespace cyrus {
namespace {

double BucketCapacity(double burst, double rate) {
  return burst > 0 ? burst : rate;
}

}  // namespace

GatewayService::Tenant::Tenant(std::string tenant_name, const TenantQuotas& q,
                               uint32_t start_window)
    : name(std::move(tenant_name)),
      quotas(q),
      op_bucket(q.ops_per_sec, BucketCapacity(q.ops_burst, q.ops_per_sec)),
      byte_bucket(q.upload_bytes_per_sec,
                  BucketCapacity(q.bytes_burst, q.upload_bytes_per_sec)),
      window(start_window) {}

std::string GatewayService::QualifiedPath(std::string_view tenant,
                                          std::string_view path) {
  return StrCat("t/", tenant, "/", path);
}

Result<std::unique_ptr<GatewayService>> GatewayService::Create(
    GatewayOptions options,
    std::vector<std::unique_ptr<CyrusClient>> shard_clients) {
  if (shard_clients.empty()) {
    return InvalidArgumentError("gateway needs at least one shard client");
  }
  for (const auto& client : shard_clients) {
    if (client == nullptr) {
      return InvalidArgumentError("null shard client");
    }
  }
  if (options.max_tenant_window == 0) {
    return InvalidArgumentError("max_tenant_window must be >= 1");
  }
  options.min_tenant_window =
      std::min(std::max<uint32_t>(options.min_tenant_window, 1),
               options.max_tenant_window);
  return std::unique_ptr<GatewayService>(
      new GatewayService(std::move(options), std::move(shard_clients)));
}

GatewayService::GatewayService(
    GatewayOptions options, std::vector<std::unique_ptr<CyrusClient>> clients)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Default()),
      shard_map_(options_.virtual_points) {
  for (auto& client : clients) {
    // Sequential AddShard in an empty, freshly constructed map cannot fail.
    const int id = shard_map_.AddShard().value();
    auto shard = std::make_unique<Shard>();
    shard->client = std::move(client);
    shard->depth_gauge = metrics_->GetGauge(
        "cyrus_gateway_shard_queue_depth", {{"shard", StrCat(id)}},
        "Modeled queue depth per metadata shard");
    shards_.emplace(id, std::move(shard));
  }
  for (RejectReason reason :
       {RejectReason::kUnknownTenant, RejectReason::kRateLimited,
        RejectReason::kByteQuota, RejectReason::kStorageQuota,
        RejectReason::kShardOverloaded, RejectReason::kWindowFull,
        RejectReason::kPrefetchShed}) {
    reject_counters_[static_cast<int>(reason)] = metrics_->GetCounter(
        "cyrus_gateway_admission_rejects_total",
        {{"reason", std::string(RejectReasonName(reason))}},
        "Requests refused by gateway admission control");
  }
  bytes_in_ = metrics_->GetCounter("cyrus_gateway_bytes_total",
                                   {{"direction", "in"}},
                                   "Tenant payload bytes through the gateway");
  bytes_out_ = metrics_->GetCounter("cyrus_gateway_bytes_total",
                                    {{"direction", "out"}},
                                    "Tenant payload bytes through the gateway");
  latency_put_ = metrics_->GetHistogram(
      "cyrus_gateway_request_latency_ms", {{"op", "put"}}, {},
      "Modeled gateway request latency (admission + shard queue)");
  latency_get_ = metrics_->GetHistogram("cyrus_gateway_request_latency_ms",
                                        {{"op", "get"}}, {}, "");
  latency_other_ = metrics_->GetHistogram("cyrus_gateway_request_latency_ms",
                                          {{"op", "other"}}, {}, "");
}

Status GatewayService::RegisterTenant(std::string_view tenant) {
  return RegisterTenant(tenant, options_.default_quotas);
}

Status GatewayService::RegisterTenant(std::string_view tenant,
                                      const TenantQuotas& quotas) {
  if (tenant.empty() || tenant.find('/') != std::string_view::npos) {
    return InvalidArgumentError(
        StrCat("tenant name must be non-empty and '/'-free: '", tenant, "'"));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (tenants_.count(std::string(tenant)) > 0) {
    return AlreadyExistsError(StrCat("tenant '", tenant, "' already registered"));
  }
  auto t = std::make_unique<Tenant>(std::string(tenant), quotas,
                                    options_.max_tenant_window);
  if (options_.per_tenant_metrics) {
    t->ops = metrics_->GetCounter("cyrus_gateway_tenant_ops_total",
                                  {{"tenant", t->name}},
                                  "Admitted operations per tenant");
    t->window_gauge = metrics_->GetGauge("cyrus_gateway_tenant_window",
                                         {{"tenant", t->name}},
                                         "Backpressure window per tenant");
    t->window_gauge->Set(t->window);
  }
  tenants_.emplace(t->name, std::move(t));
  return OkStatus();
}

void GatewayService::set_time(double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  now_s_ = std::max(now_s_, now_s);
  // Shard clients share the gateway clock (drives their retry/backoff and
  // metadata-sync throttling).
  for (auto& [id, shard] : shards_) {
    shard->client->set_time(now_s_);
  }
}

double GatewayService::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_s_;
}

Result<int> GatewayService::ShardFor(std::string_view tenant,
                                     std::string_view path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shard_map_.ShardFor(QualifiedPath(tenant, path));
}

double GatewayService::last_virtual_latency_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_latency_s_;
}

uint32_t GatewayService::TenantWindow(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->window;
}

size_t GatewayService::ShardDepthLocked(Shard& shard) const {
  auto& done = shard.completions;
  done.erase(done.begin(), done.upper_bound(now_s_));
  return done.size();
}

void GatewayService::AdjustWindow(Tenant* tenant, int shard_id) {
  Shard& shard = *shards_.at(shard_id);
  const size_t depth = ShardDepthLocked(shard);
  double burn = 0.0;
  if (tenant->quotas.ops_per_sec > 0) {
    burn = 1.0 - tenant->op_bucket.AvailableAt(now_s_) /
                     tenant->op_bucket.capacity();
  }
  const bool pressured =
      depth >= options_.shard_depth_high || burn >= options_.quota_burn_high;
  if (pressured) {
    tenant->window = std::max(options_.min_tenant_window, tenant->window / 2);
  } else if (depth <= options_.shard_depth_low &&
             tenant->window < options_.max_tenant_window) {
    ++tenant->window;  // additive recovery
  }
  if (tenant->window_gauge != nullptr) {
    tenant->window_gauge->Set(tenant->window);
  }
}

GatewayService::Admission GatewayService::Admit(std::string_view tenant_name,
                                                std::string_view path,
                                                bool is_put, uint64_t bytes,
                                                bool prefetch) {
  Admission adm;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) {
    adm.status = MakeRejectStatus(RejectReason::kUnknownTenant,
                                  StrCat("tenant '", tenant_name, "'"));
    return adm;
  }
  Tenant* tenant = it->second.get();
  adm.tenant = tenant;
  if (prefetch) {
    // Prefetch is strictly lower-class traffic: shed it while there is
    // still headroom a foreground op could use, and shed it *before* it
    // takes any tokens - a refused prefetch must not burn the quota the
    // foreground reader is about to spend. All three probes below are
    // read-only (AvailableAt refills, never consumes; ShardFor skips the
    // residency update a real Route performs).
    if (tenant->in_flight * 2 >= tenant->window) {
      adm.status = MakeRejectStatus(
          RejectReason::kPrefetchShed,
          StrCat("window half-used: ", tenant->in_flight, " of ",
                 tenant->window, " in flight"));
      return adm;
    }
    if (tenant->quotas.ops_per_sec > 0) {
      const double burn = 1.0 - tenant->op_bucket.AvailableAt(now_s_) /
                                    tenant->op_bucket.capacity();
      if (burn >= options_.prefetch_shed_burn) {
        adm.status = MakeRejectStatus(
            RejectReason::kPrefetchShed,
            StrCat("op-bucket burn ", burn, " >= ",
                   options_.prefetch_shed_burn));
        return adm;
      }
    }
    const Result<int> peek =
        shard_map_.ShardFor(QualifiedPath(tenant_name, path));
    if (peek.ok()) {
      Shard& target = *shards_.at(peek.value());
      const size_t depth = ShardDepthLocked(target);
      if (depth >= options_.shard_depth_high) {
        adm.status = MakeRejectStatus(
            RejectReason::kPrefetchShed,
            StrCat("shard ", peek.value(), " depth ", depth, " >= ",
                   options_.shard_depth_high));
        return adm;
      }
    }
  }
  if (tenant->in_flight >= tenant->window) {
    adm.status = MakeRejectStatus(
        RejectReason::kWindowFull,
        StrCat("window ", tenant->window, " in-flight ", tenant->in_flight));
    return adm;
  }
  if (!tenant->op_bucket.TryTake(now_s_, 1.0)) {
    adm.status = MakeRejectStatus(
        RejectReason::kRateLimited,
        StrCat(tenant->quotas.ops_per_sec, " ops/s exceeded"));
    return adm;
  }
  if (is_put) {
    if (tenant->quotas.stored_bytes_limit > 0) {
      uint64_t replaced = 0;
      auto f = tenant->file_sizes.find(std::string(path));
      if (f != tenant->file_sizes.end()) {
        replaced = f->second;
      }
      if (tenant->stored_bytes - replaced + bytes >
          tenant->quotas.stored_bytes_limit) {
        adm.status = MakeRejectStatus(
            RejectReason::kStorageQuota,
            StrCat("stored ", tenant->stored_bytes, " + ", bytes, " > ",
                   tenant->quotas.stored_bytes_limit));
        return adm;
      }
    }
    if (!tenant->byte_bucket.TryTake(now_s_, static_cast<double>(bytes))) {
      adm.status = MakeRejectStatus(
          RejectReason::kByteQuota,
          StrCat(tenant->quotas.upload_bytes_per_sec, " B/s exceeded"));
      return adm;
    }
  }
  const Result<ShardRoute> route =
      shard_map_.Route(QualifiedPath(tenant_name, path));
  if (!route.ok()) {
    adm.status = route.status();
    return adm;
  }
  adm.shard = route.value().shard;
  Shard& shard = *shards_.at(adm.shard);
  const size_t depth = ShardDepthLocked(shard);
  if (depth >= options_.shard_queue_reject_depth) {
    adm.status =
        MakeRejectStatus(RejectReason::kShardOverloaded,
                         StrCat("shard ", adm.shard, " depth ", depth));
    return adm;
  }
  // Model the shard's service time: requests queue behind the busy horizon.
  const double service =
      options_.shard_op_overhead_s +
      (options_.shard_bytes_per_sec > 0
           ? static_cast<double>(bytes) / options_.shard_bytes_per_sec
           : 0.0);
  const double start = std::max(now_s_, shard.busy_until);
  shard.busy_until = start + service;
  shard.completions.insert(shard.busy_until);
  shard.depth_gauge->Set(static_cast<double>(shard.completions.size()));
  adm.virtual_latency_s = shard.busy_until - now_s_;
  last_latency_s_ = adm.virtual_latency_s;
  ++tenant->in_flight;
  if (tenant->ops != nullptr) {
    tenant->ops->Increment();
  }
  AdjustWindow(tenant, adm.shard);
  adm.status = OkStatus();
  return adm;
}

void GatewayService::Complete(Tenant* tenant, int shard_id, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tenant->in_flight > 0) {
    --tenant->in_flight;
  }
  ++ops_total_;
  if (ok) {
    ++ops_ok_;
  } else {
    ++ops_failed_;
  }
  AdjustWindow(tenant, shard_id);
}

void GatewayService::RecordReject(std::string_view tenant,
                                  const Status& status, std::string_view op) {
  const std::optional<RejectReason> reason = RejectReasonOf(status);
  std::string name = "internal";
  if (reason.has_value()) {
    reject_counters_[static_cast<int>(*reason)]->Increment();
    name = std::string(RejectReasonName(*reason));
    if (options_.per_tenant_metrics) {
      metrics_
          ->GetCounter("cyrus_gateway_tenant_rejects_total",
                       {{"tenant", std::string(tenant)}, {"reason", name}},
                       "Typed rejects per tenant")
          ->Increment();
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_total_;
  ++rejects_total_;
  ++rejects_by_reason_[name];
  metrics_
      ->GetCounter("cyrus_gateway_ops_total",
                   {{"op", std::string(op)}, {"result", "rejected"}},
                   "Gateway operations by op and outcome")
      ->Increment();
}

void GatewayService::RecordResult(std::string_view op, bool ok,
                                  double latency_s) {
  metrics_
      ->GetCounter("cyrus_gateway_ops_total",
                   {{"op", std::string(op)}, {"result", ok ? "ok" : "error"}},
                   "Gateway operations by op and outcome")
      ->Increment();
  obs::Histogram* histogram = op == "put" ? latency_put_
                              : (op == "get" || op == "get_range")
                                  ? latency_get_
                                  : latency_other_;
  histogram->Observe(latency_s * 1000.0);
}

Result<PutResult> GatewayService::Put(std::string_view tenant,
                                      std::string_view path,
                                      ByteSpan content) {
  obs::TraceBuilder trace(options_.traces, "gateway.put",
                          QualifiedPath(tenant, path));
  Admission adm;
  {
    obs::ScopedSpan span = trace.Span("admit+route");
    adm = Admit(tenant, path, /*is_put=*/true, content.size());
  }
  if (!adm.status.ok()) {
    RecordReject(tenant, adm.status, "put");
    return adm.status;
  }
  Result<PutResult> result = [&] {
    obs::ScopedSpan span = trace.Span("execute");
    span.AddBytes(content.size());
    Shard& shard = *shards_.at(adm.shard);
    std::lock_guard<std::mutex> lock(shard.exec_mutex);
    return shard.client->Put(QualifiedPath(tenant, path), content);
  }();
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant* tenant_state = adm.tenant;
    uint64_t& recorded = tenant_state->file_sizes[std::string(path)];
    tenant_state->stored_bytes += content.size() - recorded;
    recorded = content.size();
    bytes_in_->Increment(content.size());
  }
  Complete(adm.tenant, adm.shard, result.ok());
  RecordResult("put", result.ok(), adm.virtual_latency_s);
  return result;
}

Result<GetResult> GatewayService::Get(std::string_view tenant,
                                      std::string_view path) {
  obs::TraceBuilder trace(options_.traces, "gateway.get",
                          QualifiedPath(tenant, path));
  Admission adm;
  {
    obs::ScopedSpan span = trace.Span("admit+route");
    adm = Admit(tenant, path, /*is_put=*/false, 0);
  }
  if (!adm.status.ok()) {
    RecordReject(tenant, adm.status, "get");
    return adm.status;
  }
  Result<GetResult> result = [&] {
    obs::ScopedSpan span = trace.Span("execute");
    Shard& shard = *shards_.at(adm.shard);
    std::lock_guard<std::mutex> lock(shard.exec_mutex);
    return shard.client->Get(QualifiedPath(tenant, path));
  }();
  if (result.ok()) {
    bytes_out_->Increment(result.value().content.size());
  }
  Complete(adm.tenant, adm.shard, result.ok());
  RecordResult("get", result.ok(), adm.virtual_latency_s);
  return result;
}

Result<GetResult> GatewayService::GetRange(std::string_view tenant,
                                           std::string_view path,
                                           uint64_t offset, uint64_t len,
                                           bool prefetch) {
  obs::TraceBuilder trace(options_.traces, "gateway.get_range",
                          QualifiedPath(tenant, path));
  Admission adm;
  {
    obs::ScopedSpan span = trace.Span("admit+route");
    adm = Admit(tenant, path, /*is_put=*/false, 0, prefetch);
  }
  if (!adm.status.ok()) {
    RecordReject(tenant, adm.status, "get_range");
    return adm.status;
  }
  Result<GetResult> result = [&] {
    obs::ScopedSpan span = trace.Span("execute");
    Shard& shard = *shards_.at(adm.shard);
    std::lock_guard<std::mutex> lock(shard.exec_mutex);
    return shard.client->GetRange(QualifiedPath(tenant, path), offset, len);
  }();
  if (result.ok()) {
    bytes_out_->Increment(result.value().content.size());
  }
  Complete(adm.tenant, adm.shard, result.ok());
  RecordResult("get_range", result.ok(), adm.virtual_latency_s);
  return result;
}

Status GatewayService::Delete(std::string_view tenant, std::string_view path) {
  obs::TraceBuilder trace(options_.traces, "gateway.delete",
                          QualifiedPath(tenant, path));
  Admission adm;
  {
    obs::ScopedSpan span = trace.Span("admit+route");
    adm = Admit(tenant, path, /*is_put=*/false, 0);
  }
  if (!adm.status.ok()) {
    RecordReject(tenant, adm.status, "delete");
    return adm.status;
  }
  Status result = [&] {
    obs::ScopedSpan span = trace.Span("execute");
    Shard& shard = *shards_.at(adm.shard);
    std::lock_guard<std::mutex> lock(shard.exec_mutex);
    return shard.client->Delete(QualifiedPath(tenant, path));
  }();
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant* tenant_state = adm.tenant;
    auto it = tenant_state->file_sizes.find(std::string(path));
    if (it != tenant_state->file_sizes.end()) {
      tenant_state->stored_bytes -= it->second;
      tenant_state->file_sizes.erase(it);
    }
  }
  Complete(adm.tenant, adm.shard, result.ok());
  RecordResult("delete", result.ok(), adm.virtual_latency_s);
  return result;
}

Result<std::vector<FileListing>> GatewayService::List(std::string_view tenant,
                                                      std::string_view prefix) {
  obs::TraceBuilder trace(options_.traces, "gateway.list",
                          QualifiedPath(tenant, prefix));
  Admission adm;
  {
    obs::ScopedSpan span = trace.Span("admit+route");
    adm = Admit(tenant, prefix, /*is_put=*/false, 0);
  }
  if (!adm.status.ok()) {
    RecordReject(tenant, adm.status, "list");
    return adm.status;
  }
  const std::string qualified_prefix = QualifiedPath(tenant, prefix);
  // A listing spans paths on every shard: fan out and merge. Each shard
  // holds only the files routed to it, so the union is exact.
  std::vector<FileListing> merged;
  Status failure = OkStatus();
  {
    obs::ScopedSpan span = trace.Span("execute");
    for (auto& [id, shard] : shards_) {
      std::lock_guard<std::mutex> lock(shard->exec_mutex);
      Result<std::vector<FileListing>> part =
          shard->client->List(qualified_prefix);
      if (!part.ok()) {
        failure = part.status();
        break;
      }
      for (FileListing& listing : part.value()) {
        merged.push_back(std::move(listing));
      }
    }
  }
  const bool ok = failure.ok();
  Complete(adm.tenant, adm.shard, ok);
  RecordResult("list", ok, adm.virtual_latency_s);
  if (!ok) {
    return failure;
  }
  // Strip the namespace qualifier so tenants see their own paths.
  const std::string ns = StrCat("t/", tenant, "/");
  for (FileListing& listing : merged) {
    if (listing.name.size() >= ns.size() &&
        listing.name.compare(0, ns.size(), ns) == 0) {
      listing.name = listing.name.substr(ns.size());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const FileListing& a, const FileListing& b) {
              return a.name < b.name;
            });
  return merged;
}

GatewayStats GatewayService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  GatewayStats stats;
  stats.ops_total = ops_total_;
  stats.ops_ok = ops_ok_;
  stats.ops_failed = ops_failed_;
  stats.rejects_total = rejects_total_;
  stats.rejects_by_reason = rejects_by_reason_;
  for (const auto& [id, shard] : shards_) {
    auto& done = shard->completions;
    done.erase(done.begin(), done.upper_bound(now_s_));
    stats.shard_queue_depth[id] = done.size();
  }
  for (const auto& [name, tenant] : tenants_) {
    stats.tenant_window[name] = tenant->window;
    stats.tenant_stored_bytes[name] = tenant->stored_bytes;
  }
  stats.num_tenants = tenants_.size();
  stats.num_shards = shards_.size();
  // All shard workers point at the same deployment-wide index (that is the
  // whole point of cross-user dedup), so the first shard's view is the
  // gateway's view.
  if (!shards_.empty()) {
    const ShareIndex* index = shards_.begin()->second->client->config().share_index;
    if (index != nullptr) {
      const ShareIndexStats dedup = index->Stats();
      stats.dedup_enabled = true;
      stats.dedup_logical_bytes = dedup.logical_bytes;
      stats.dedup_unique_bytes = dedup.unique_bytes;
      stats.dedup_physical_bytes = dedup.physical_bytes;
      stats.dedup_ratio = dedup.dedup_ratio();
      stats.dedup_hit_rate = dedup.hit_rate();
    }
  }
  // Integrity failures accumulate per shard client (each runs its own
  // availability monitor); fold them into one per-CSP ledger keyed by
  // connector id so the operator view survives shard-local index spaces.
  for (const auto& [id, shard] : shards_) {
    CyrusClient* client = shard->client.get();
    for (const auto& [csp, count] :
         client->availability_monitor().IntegrityFailureCounts()) {
      auto name = client->registry().name(csp);
      const std::string key = name.ok() ? *name : StrCat("csp-", csp);
      stats.integrity_failures_by_csp[key] += count;
      stats.integrity_failures_total += count;
    }
  }
  return stats;
}

}  // namespace cyrus
