// Multi-tenant gateway: shard routing, admission control, typed rejects,
// backpressure, the REST frontend, and concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/cloud/simulated_csp.h"
#include "src/gateway/admission.h"
#include "src/gateway/gateway.h"
#include "src/gateway/gateway_rest.h"
#include "src/gateway/shard_map.h"
#include "src/rest/json.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

CyrusConfig ShardConfig(int shard) {
  CyrusConfig config;
  config.client_id = StrCat("gateway-shard-", shard);
  config.key_string = "gateway test key";
  config.t = 2;
  config.epsilon = 1e-4;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  config.transfer_concurrency = 1;
  return config;
}

// One shard worker: a CyrusClient over its own pool of simulated CSPs.
std::unique_ptr<CyrusClient> MakeShardClient(int shard, int num_csps = 4) {
  auto client = CyrusClient::Create(ShardConfig(shard));
  EXPECT_TRUE(client.ok()) << client.status();
  for (int i = 0; i < num_csps; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("shard", shard, "-csp", i);
    auto added = client.value()->AddCsp(std::make_shared<SimulatedCsp>(o),
                                        CspProfile{}, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return std::move(client).value();
}

std::unique_ptr<GatewayService> MakeGateway(GatewayOptions options,
                                            int num_shards) {
  std::vector<std::unique_ptr<CyrusClient>> clients;
  for (int s = 0; s < num_shards; ++s) {
    clients.push_back(MakeShardClient(s));
  }
  auto gateway = GatewayService::Create(std::move(options), std::move(clients));
  EXPECT_TRUE(gateway.ok()) << gateway.status();
  return std::move(gateway).value();
}

GatewayOptions QuietOptions(obs::MetricsRegistry* metrics) {
  GatewayOptions options;
  options.metrics = metrics;
  // Generous defaults so tests opt *into* each limit explicitly.
  options.default_quotas = TenantQuotas{};
  options.shard_queue_reject_depth = 1 << 20;
  options.shard_depth_high = 1 << 19;
  return options;
}

// --- typed rejects -------------------------------------------------------

TEST(AdmissionTest, RejectStatusRoundTripsEveryReason) {
  for (RejectReason reason :
       {RejectReason::kUnknownTenant, RejectReason::kRateLimited,
        RejectReason::kByteQuota, RejectReason::kStorageQuota,
        RejectReason::kShardOverloaded, RejectReason::kWindowFull,
        RejectReason::kPrefetchShed}) {
    const Status status = MakeRejectStatus(reason, "detail");
    EXPECT_TRUE(IsGatewayReject(status)) << status;
    ASSERT_TRUE(RejectReasonOf(status).has_value()) << status;
    EXPECT_EQ(*RejectReasonOf(status), reason);
  }
}

TEST(AdmissionTest, OrdinaryErrorsAreNotRejects) {
  EXPECT_FALSE(IsGatewayReject(OkStatus()));
  EXPECT_FALSE(IsGatewayReject(NotFoundError("missing")));
  EXPECT_FALSE(IsGatewayReject(ResourceExhaustedError("disk full")));
  EXPECT_FALSE(RejectReasonOf(InternalError("gateway-rejectish")).has_value());
}

TEST(AdmissionTest, TokenBucketRefillsInVirtualTime) {
  TokenBucket bucket(/*rate=*/10.0, /*capacity=*/10.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bucket.TryTake(0.0, 1.0)) << i;
  }
  EXPECT_FALSE(bucket.TryTake(0.0, 1.0));
  EXPECT_TRUE(bucket.TryTake(0.5, 5.0));   // half a second buys 5 tokens
  EXPECT_FALSE(bucket.TryTake(0.5, 1.0));
  EXPECT_TRUE(bucket.TryTake(10.0, 10.0));  // capped at capacity
  EXPECT_FALSE(bucket.TryTake(10.0, 1.0));
}

TEST(AdmissionTest, ZeroRateMeansUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryTake(0.0, 1e9));
  }
}

// --- tenancy -------------------------------------------------------------

TEST(GatewayTest, RegisterTenantValidatesNames) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  EXPECT_TRUE(gateway->RegisterTenant("alice").ok());
  EXPECT_EQ(gateway->RegisterTenant("alice").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(gateway->RegisterTenant("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gateway->RegisterTenant("a/b").code(),
            StatusCode::kInvalidArgument);
}

TEST(GatewayTest, UnknownTenantGetsTypedReject) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  const Bytes payload = ToBytes("hello");
  Result<PutResult> put = gateway->Put("ghost", "file.txt", payload);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(RejectReasonOf(put.status()), RejectReason::kUnknownTenant);
  EXPECT_EQ(put.status().code(), StatusCode::kPermissionDenied);
}

TEST(GatewayTest, TenantsAreIsolatedNamespaces) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 3);
  ASSERT_TRUE(gateway->RegisterTenant("alice").ok());
  ASSERT_TRUE(gateway->RegisterTenant("bob").ok());

  ASSERT_TRUE(gateway->Put("alice", "notes.txt", ToBytes("alice data")).ok());
  ASSERT_TRUE(gateway->Put("bob", "notes.txt", ToBytes("bob data")).ok());

  Result<GetResult> alice = gateway->Get("alice", "notes.txt");
  Result<GetResult> bob = gateway->Get("bob", "notes.txt");
  ASSERT_TRUE(alice.ok()) << alice.status();
  ASSERT_TRUE(bob.ok()) << bob.status();
  EXPECT_EQ(ToString(alice.value().content), "alice data");
  EXPECT_EQ(ToString(bob.value().content), "bob data");

  // Listing shows only the tenant's own namespace, qualifier stripped.
  Result<std::vector<FileListing>> listing = gateway->List("alice", "");
  ASSERT_TRUE(listing.ok()) << listing.status();
  ASSERT_EQ(listing.value().size(), 1u);
  EXPECT_EQ(listing.value()[0].name, "notes.txt");
}

TEST(GatewayTest, ListMergesAcrossShards) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 4);
  ASSERT_TRUE(gateway->RegisterTenant("carol").ok());
  std::set<int> shards_used;
  for (int i = 0; i < 16; ++i) {
    const std::string path = StrCat("dir/file-", i, ".dat");
    ASSERT_TRUE(gateway->Put("carol", path, ToBytes(StrCat("v", i))).ok());
    shards_used.insert(gateway->ShardFor("carol", path).value());
  }
  // 16 paths over 4 shards: consistent hashing should hit more than one.
  EXPECT_GT(shards_used.size(), 1u);

  Result<std::vector<FileListing>> listing = gateway->List("carol", "dir/");
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_EQ(listing.value().size(), 16u);
  EXPECT_TRUE(std::is_sorted(
      listing.value().begin(), listing.value().end(),
      [](const FileListing& a, const FileListing& b) { return a.name < b.name; }));
}

// --- admission control ---------------------------------------------------

TEST(GatewayTest, OpRateQuotaShedsWithTypedReject) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  auto gateway = MakeGateway(options, 2);
  TenantQuotas quotas;
  quotas.ops_per_sec = 5.0;
  quotas.ops_burst = 5.0;
  ASSERT_TRUE(gateway->RegisterTenant("dave", quotas).ok());

  int admitted = 0;
  int rate_limited = 0;
  for (int i = 0; i < 10; ++i) {
    Result<GetResult> get = gateway->Get("dave", "missing.txt");
    if (RejectReasonOf(get.status()) == RejectReason::kRateLimited) {
      ++rate_limited;
    } else {
      ++admitted;  // NotFound from the store still means it was admitted
    }
  }
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(rate_limited, 5);

  // Virtual time refills the bucket.
  gateway->set_time(1.0);
  Result<GetResult> after = gateway->Get("dave", "missing.txt");
  EXPECT_NE(RejectReasonOf(after.status()), RejectReason::kRateLimited);

  const GatewayStats stats = gateway->Stats();
  EXPECT_EQ(stats.rejects_by_reason.at("rate-limited"), 5u);
  EXPECT_EQ(stats.rejects_total, 5u);
}

TEST(GatewayTest, UploadByteQuotaShedsLargePuts) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 1);
  TenantQuotas quotas;
  quotas.upload_bytes_per_sec = 1024.0;
  quotas.bytes_burst = 1024.0;
  ASSERT_TRUE(gateway->RegisterTenant("erin", quotas).ok());

  const Bytes big(2048, 0x42);
  Result<PutResult> put = gateway->Put("erin", "big.bin", big);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(RejectReasonOf(put.status()), RejectReason::kByteQuota);

  const Bytes small(512, 0x41);
  EXPECT_TRUE(gateway->Put("erin", "small.bin", small).ok());
}

TEST(GatewayTest, StorageQuotaFreesOnDelete) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 1);
  TenantQuotas quotas;
  quotas.stored_bytes_limit = 1000;
  ASSERT_TRUE(gateway->RegisterTenant("frank", quotas).ok());

  ASSERT_TRUE(gateway->Put("frank", "a.bin", Bytes(600, 0x01)).ok());
  Result<PutResult> over = gateway->Put("frank", "b.bin", Bytes(600, 0x02));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(RejectReasonOf(over.status()), RejectReason::kStorageQuota);

  // Overwriting a file charges only the delta.
  EXPECT_TRUE(gateway->Put("frank", "a.bin", Bytes(900, 0x03)).ok());

  ASSERT_TRUE(gateway->Delete("frank", "a.bin").ok());
  EXPECT_TRUE(gateway->Put("frank", "b.bin", Bytes(600, 0x02)).ok());
  EXPECT_EQ(gateway->Stats().tenant_stored_bytes.at("frank"), 600u);
}

TEST(GatewayTest, ShardOverloadRejectsPastDepthLimit) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.shard_queue_reject_depth = 4;
  options.shard_op_overhead_s = 1.0;  // ops linger in the modeled queue
  auto gateway = MakeGateway(options, 1);
  ASSERT_TRUE(gateway->RegisterTenant("gail").ok());

  int overloaded = 0;
  for (int i = 0; i < 8; ++i) {
    Result<PutResult> put =
        gateway->Put("gail", StrCat("f", i), ToBytes("x"));
    if (RejectReasonOf(put.status()) == RejectReason::kShardOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_EQ(overloaded, 4);  // first 4 fill the queue, rest shed

  // Draining the virtual queue restores admission.
  gateway->set_time(100.0);
  EXPECT_TRUE(gateway->Put("gail", "late", ToBytes("y")).ok());
}

// --- backpressure --------------------------------------------------------

TEST(GatewayTest, WindowShrinksUnderQueueDepthAndRecovers) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.max_tenant_window = 16;
  options.min_tenant_window = 2;
  options.shard_depth_high = 3;
  options.shard_depth_low = 1;
  options.shard_op_overhead_s = 1.0;
  auto gateway = MakeGateway(options, 1);
  ASSERT_TRUE(gateway->RegisterTenant("hank").ok());
  EXPECT_EQ(gateway->TenantWindow("hank"), 16u);

  for (int i = 0; i < 8; ++i) {
    (void)gateway->Put("hank", StrCat("f", i), ToBytes("x"));
  }
  EXPECT_EQ(gateway->TenantWindow("hank"), options.min_tenant_window);

  // Once the modeled queue drains, calm traffic regrows the window
  // additively (one slot per completed op).
  double now = 100.0;
  for (int i = 0; i < 6; ++i) {
    gateway->set_time(now);
    ASSERT_TRUE(gateway->Get("hank", "f0").ok());
    now += 10.0;
  }
  EXPECT_GT(gateway->TenantWindow("hank"), options.min_tenant_window);
}

TEST(GatewayTest, QuotaBurnShrinksWindow) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.max_tenant_window = 8;
  options.min_tenant_window = 1;
  options.quota_burn_high = 0.5;
  auto gateway = MakeGateway(options, 1);
  TenantQuotas quotas;
  quotas.ops_per_sec = 10.0;
  quotas.ops_burst = 10.0;
  ASSERT_TRUE(gateway->RegisterTenant("iris", quotas).ok());

  // Burn >50% of the bucket without advancing time: the window shrinks
  // even though the shard queue is idle.
  for (int i = 0; i < 8; ++i) {
    (void)gateway->Get("iris", "nofile");
  }
  EXPECT_LT(gateway->TenantWindow("iris"), 8u);
}

// --- observability -------------------------------------------------------

TEST(GatewayTest, MetricsAndTracesCoverTheRequestPath) {
  obs::MetricsRegistry metrics;
  obs::TraceCollector traces(16);
  GatewayOptions options = QuietOptions(&metrics);
  options.traces = &traces;
  auto gateway = MakeGateway(options, 2);
  ASSERT_TRUE(gateway->RegisterTenant("kate").ok());
  ASSERT_TRUE(gateway->Put("kate", "doc.txt", ToBytes("payload")).ok());
  ASSERT_TRUE(gateway->Get("kate", "doc.txt").ok());

  const obs::RegistrySnapshot snapshot = metrics.Snapshot("cyrus_gateway_");
  std::set<std::string> families;
  for (const auto& metric : snapshot.metrics) {
    families.insert(metric.name);
  }
  EXPECT_TRUE(families.count("cyrus_gateway_ops_total"));
  EXPECT_TRUE(families.count("cyrus_gateway_shard_queue_depth"));
  EXPECT_TRUE(families.count("cyrus_gateway_request_latency_ms"));
  EXPECT_TRUE(families.count("cyrus_gateway_tenant_ops_total"));

  obs::Trace trace;
  ASSERT_TRUE(traces.Latest("gateway.put", &trace));
  EXPECT_NE(trace.FindSpan("admit+route"), nullptr);
  EXPECT_NE(trace.FindSpan("execute"), nullptr);
}

// --- range reads & prefetch shedding -------------------------------------

TEST(GatewayTest, GetRangeServesTheRequestedSlice) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  ASSERT_TRUE(gateway->RegisterTenant("vera").ok());
  Bytes content(20 * 1024);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(gateway->Put("vera", "movie.bin", content).ok());

  Result<GetResult> got = gateway->GetRange("vera", "movie.bin", 5000, 1234);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content,
            Bytes(content.begin() + 5000, content.begin() + 5000 + 1234));
  EXPECT_EQ(got->range_offset, 5000u);
  EXPECT_EQ(got->file_size, content.size());

  // Past-the-end start is the client's InvalidArgument, not a reject.
  Result<GetResult> past =
      gateway->GetRange("vera", "movie.bin", content.size() + 1, 1);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsGatewayReject(past.status()));
}

TEST(GatewayTest, PrefetchShedsBeforeForegroundUnderQuotaBurn) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.prefetch_shed_burn = 0.5;
  auto gateway = MakeGateway(options, 1);
  TenantQuotas quotas;
  quotas.ops_per_sec = 10.0;
  quotas.ops_burst = 10.0;
  ASSERT_TRUE(gateway->RegisterTenant("pia", quotas).ok());
  ASSERT_TRUE(gateway->Put("pia", "s.bin", Bytes(8 * 1024, 0x5A)).ok());

  // Burn past the shed threshold (6 of 10 tokens) with foreground reads.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(gateway->GetRange("pia", "s.bin", 0, 512).ok()) << i;
  }

  // A prefetch-tagged read sheds with the typed reason - before consuming
  // a token, so the foreground read right after it still gets one.
  Result<GetResult> prefetch =
      gateway->GetRange("pia", "s.bin", 512, 512, /*prefetch=*/true);
  ASSERT_FALSE(prefetch.ok());
  EXPECT_EQ(RejectReasonOf(prefetch.status()), RejectReason::kPrefetchShed);

  Result<GetResult> foreground = gateway->GetRange("pia", "s.bin", 512, 512);
  EXPECT_TRUE(foreground.ok()) << foreground.status();

  // Under a refilled bucket the same prefetch op is admitted again.
  gateway->set_time(10.0);
  Result<GetResult> later =
      gateway->GetRange("pia", "s.bin", 1024, 512, /*prefetch=*/true);
  EXPECT_TRUE(later.ok()) << later.status();
}

// --- REST frontend -------------------------------------------------------

TEST(GatewayRestTest, UploadDownloadDeleteListRoundTrip) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  ASSERT_TRUE(gateway->RegisterTenant("lara").ok());
  GatewayRestFrontend frontend(gateway.get(), &metrics);

  HttpRequest upload;
  upload.method = HttpMethod::kPost;
  upload.path = "/gateway/lara/files/upload";
  upload.query["name"] = "a.txt";
  upload.body = ToBytes("rest payload");
  EXPECT_EQ(frontend.Handle(upload).status, 200);

  HttpRequest download;
  download.path = "/gateway/lara/files/download";
  download.query["name"] = "a.txt";
  HttpResponse got = frontend.Handle(download);
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(ToString(got.body), "rest payload");

  HttpRequest list;
  list.path = "/gateway/lara/files/list";
  HttpResponse listed = frontend.Handle(list);
  EXPECT_EQ(listed.status, 200);
  auto parsed = JsonValue::Parse(ToString(listed.body));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()["entries"].AsArray().size(), 1u);

  HttpRequest del;
  del.method = HttpMethod::kPost;
  del.path = "/gateway/lara/files/delete";
  del.query["name"] = "a.txt";
  EXPECT_EQ(frontend.Handle(del).status, 200);

  HttpResponse gone = frontend.Handle(download);
  EXPECT_EQ(gone.status, 404);
}

TEST(GatewayRestTest, TypedRejectsMapToTransportCodes) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  auto gateway = MakeGateway(options, 1);
  TenantQuotas quotas;
  quotas.ops_per_sec = 1.0;
  quotas.ops_burst = 1.0;
  quotas.stored_bytes_limit = 100;
  ASSERT_TRUE(gateway->RegisterTenant("mina", quotas).ok());
  GatewayRestFrontend frontend(gateway.get(), &metrics);

  // Unknown tenant -> 403.
  HttpRequest ghost;
  ghost.path = "/gateway/ghost/files/download";
  ghost.query["name"] = "x";
  EXPECT_EQ(frontend.Handle(ghost).status, 403);

  // Storage quota -> 507, with the machine-readable reason in the body.
  HttpRequest upload;
  upload.method = HttpMethod::kPost;
  upload.path = "/gateway/mina/files/upload";
  upload.query["name"] = "big.bin";
  upload.body = Bytes(500, 0x42);
  HttpResponse quota = frontend.Handle(upload);
  EXPECT_EQ(quota.status, 507);
  auto body = JsonValue::Parse(ToString(quota.body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value()["error"].AsString(), "storage-quota");

  // Rate limit (bucket already drained by the quota attempt) -> 429.
  HttpRequest read;
  read.path = "/gateway/mina/files/download";
  read.query["name"] = "x";
  EXPECT_EQ(frontend.Handle(read).status, 429);
}

TEST(GatewayRestTest, RangeHeaderGets206WithContentRange) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  ASSERT_TRUE(gateway->RegisterTenant("ola").ok());
  GatewayRestFrontend frontend(gateway.get(), &metrics);

  Bytes content(4096);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  HttpRequest upload;
  upload.method = HttpMethod::kPost;
  upload.path = "/gateway/ola/files/upload";
  upload.query["name"] = "clip.bin";
  upload.body = content;
  ASSERT_EQ(frontend.Handle(upload).status, 200);

  HttpRequest download;
  download.path = "/gateway/ola/files/download";
  download.query["name"] = "clip.bin";

  // Closed range: inclusive bounds, 206, Content-Range with the full size.
  download.headers["range"] = "bytes=100-355";
  HttpResponse part = frontend.Handle(download);
  EXPECT_EQ(part.status, 206);
  EXPECT_EQ(part.body, Bytes(content.begin() + 100, content.begin() + 356));
  EXPECT_EQ(part.headers["content-range"], "bytes 100-355/4096");

  // Open-ended range: to the end of the file.
  download.headers["range"] = "bytes=4000-";
  HttpResponse tail = frontend.Handle(download);
  EXPECT_EQ(tail.status, 206);
  EXPECT_EQ(tail.body, Bytes(content.begin() + 4000, content.end()));
  EXPECT_EQ(tail.headers["content-range"], "bytes 4000-4095/4096");

  // End clamped to the file size.
  download.headers["range"] = "bytes=4090-999999";
  HttpResponse clamped = frontend.Handle(download);
  EXPECT_EQ(clamped.status, 206);
  EXPECT_EQ(clamped.headers["content-range"], "bytes 4090-4095/4096");

  // Unsupported forms are ignored per RFC 7233: full 200 response.
  for (const char* ignored : {"bytes=-500", "bytes=5-2", "items=0-4", "junk"}) {
    download.headers["range"] = ignored;
    HttpResponse full = frontend.Handle(download);
    EXPECT_EQ(full.status, 200) << ignored;
    EXPECT_EQ(full.body, content) << ignored;
    EXPECT_EQ(full.headers["accept-ranges"], "bytes") << ignored;
  }

  // A start past the end is 416 Range Not Satisfiable.
  download.headers["range"] = "bytes=5000-6000";
  EXPECT_EQ(frontend.Handle(download).status, 416);
}

TEST(GatewayRestTest, PrefetchTaggedRangeShedsWith429) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.prefetch_shed_burn = 0.5;
  auto gateway = MakeGateway(options, 1);
  TenantQuotas quotas;
  quotas.ops_per_sec = 10.0;
  quotas.ops_burst = 10.0;
  ASSERT_TRUE(gateway->RegisterTenant("rui", quotas).ok());
  ASSERT_TRUE(gateway->Put("rui", "v.bin", Bytes(2048, 0x7C)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(gateway->GetRange("rui", "v.bin", 0, 128).ok()) << i;
  }
  GatewayRestFrontend frontend(gateway.get(), &metrics);

  HttpRequest prefetch;
  prefetch.path = "/gateway/rui/files/download";
  prefetch.query["name"] = "v.bin";
  prefetch.headers["range"] = "bytes=128-255";
  prefetch.headers["x-cyrus-prefetch"] = "1";
  HttpResponse shed = frontend.Handle(prefetch);
  EXPECT_EQ(shed.status, 429);
  auto body = JsonValue::Parse(ToString(shed.body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value()["error"].AsString(), "prefetch-shed");

  // The same request untagged is foreground and admitted.
  prefetch.headers.erase("x-cyrus-prefetch");
  EXPECT_EQ(frontend.Handle(prefetch).status, 206);
}

TEST(GatewayRestTest, UnknownRoutesAre404) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 1);
  GatewayRestFrontend frontend(gateway.get(), &metrics);
  HttpRequest request;
  request.path = "/gateway/unknown";
  EXPECT_EQ(frontend.Handle(request).status, 404);
  request.path = "/gateway/t1/files/rename";
  EXPECT_EQ(frontend.Handle(request).status, 404);
  request.path = "/elsewhere";
  EXPECT_EQ(frontend.Handle(request).status, 404);
}

TEST(GatewayRestTest, StatsEndpointReportsShedding) {
  obs::MetricsRegistry metrics;
  auto gateway = MakeGateway(QuietOptions(&metrics), 2);
  TenantQuotas quotas;
  quotas.ops_per_sec = 2.0;
  quotas.ops_burst = 2.0;
  ASSERT_TRUE(gateway->RegisterTenant("nina", quotas).ok());
  for (int i = 0; i < 6; ++i) {
    (void)gateway->Put("nina", "f.txt", ToBytes("x"));
  }
  GatewayRestFrontend frontend(gateway.get(), &metrics);
  HttpRequest stats;
  stats.path = "/gateway/stats";
  HttpResponse response = frontend.Handle(stats);
  EXPECT_EQ(response.status, 200);
  auto body = JsonValue::Parse(ToString(response.body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value()["num_shards"].AsNumber(), 2.0);
  EXPECT_EQ(body.value()["rejects_by_reason"]["rate-limited"].AsNumber(), 4.0);
}

// --- concurrency (TSan surface) ------------------------------------------

TEST(GatewayConcurrencyTest, ParallelTenantsSeeOnlyOkOrTypedRejects) {
  obs::MetricsRegistry metrics;
  GatewayOptions options = QuietOptions(&metrics);
  options.max_tenant_window = 4;
  auto gateway = MakeGateway(options, 2);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 25;
  for (int t = 0; t < kThreads; ++t) {
    TenantQuotas quotas;
    quotas.ops_per_sec = 40.0;  // tight enough that some threads shed
    ASSERT_TRUE(gateway->RegisterTenant(StrCat("tenant-", t), quotas).ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = StrCat("tenant-", t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string path = StrCat("file-", i % 5);
        Result<PutResult> put =
            gateway->Put(tenant, path, ToBytes(StrCat("v", i)));
        if (!put.ok() && !IsGatewayReject(put.status())) {
          ++failures;
        }
        Result<GetResult> get = gateway->Get(tenant, path);
        if (!get.ok() && !IsGatewayReject(get.status()) &&
            get.status().code() != StatusCode::kNotFound) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const GatewayStats stats = gateway->Stats();
  EXPECT_EQ(stats.ops_total,
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 2);
}

}  // namespace
}  // namespace cyrus
