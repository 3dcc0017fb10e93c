// End-to-end acceptance for the observability subsystem: a seeded client
// drives Put/Get/ScrubOnce through MetricsConnector-wrapped fault-injecting
// providers and the exported data must tell one consistent story — per-CSP
// op counts line up across decorator layers, latency percentiles are
// non-empty, retry counts match the injected transient errors, traces carry
// the pipeline's stage timeline, and GET /metrics serves a parseable
// exposition in both formats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/metrics_connector.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rest/http.h"
#include "src/rest/json.h"
#include "src/rest/rest_server.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 4;

// A client over kNumCsps simulated stores, each stacked as
// MetricsConnector(FaultInjectingConnector(SimulatedCsp)): the metrics
// layer sits outside the fault layer so every injected error is observed
// exactly like a real provider error. All instrumentation records into the
// private `registry`/`traces` for isolated absolute assertions.
struct ObservedCloud {
  obs::MetricsRegistry registry;  // outlives the client (declared first)
  obs::TraceCollector traces{16};
  std::vector<std::shared_ptr<SimulatedCsp>> stores;
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::unique_ptr<CyrusClient> client;

  explicit ObservedCloud(double transient_prob = 0.0) {
    CyrusConfig config;
    config.client_id = "obs-device";
    config.key_string = "obs e2e key";
    config.t = 2;
    config.epsilon = 1e-4;
    config.default_failure_prob = 0.01;
    config.chunker = ChunkerOptions::ForTesting();
    config.cluster_aware = false;
    config.transfer_concurrency = 1;  // deterministic fault schedule
    config.transfer_retry.max_attempts = 8;
    config.metrics = &registry;
    config.traces = &traces;
    auto created = CyrusClient::Create(std::move(config));
    EXPECT_TRUE(created.ok()) << created.status();
    client = std::move(created).value();

    for (int i = 0; i < kNumCsps; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("csp", i);
      o.naming = (i % 2 == 0) ? NamingPolicy::kNameKeyed : NamingPolicy::kIdKeyed;
      stores.push_back(std::make_shared<SimulatedCsp>(o));
      FaultInjectionOptions fo;
      fo.seed = 90 + static_cast<uint64_t>(i);
      fo.metrics = &registry;
      fo.transient_error_prob = transient_prob;
      faults.push_back(
          std::make_shared<FaultInjectingConnector>(stores.back(), fo));
      auto metered = std::make_shared<MetricsConnector>(faults.back(), &registry);
      CspProfile profile;
      profile.rtt_ms = 50 + 10.0 * i;
      profile.download_bytes_per_sec = 4e6;
      profile.upload_bytes_per_sec = 2e6;
      auto added = client->AddCsp(metered, profile, Credentials{"token"});
      EXPECT_TRUE(added.ok()) << added.status();
    }
  }

  uint64_t OpCount(int csp, const char* op, const char* result) {
    return registry
        .GetCounter("cyrus_csp_ops_total",
                    {{"csp", StrCat("csp", csp)}, {"op", op}, {"result", result}})
        ->value();
  }

  // Data-path calls seen by the metrics layer for one CSP (Authenticate is
  // excluded: the fault injector's call counter exempts it too).
  uint64_t DataPathOps(int csp) {
    uint64_t total = 0;
    for (const char* op : {"list", "upload", "download", "delete"}) {
      total += OpCount(csp, op, "ok") + OpCount(csp, op, "error");
    }
    return total;
  }
};

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

TEST(ObsEndToEndTest, PutGetScrubExportAConsistentStory) {
  ObservedCloud cloud;
  constexpr int kFiles = 6;
  std::vector<Bytes> contents;
  for (int i = 0; i < kFiles; ++i) {
    contents.push_back(RandomContent(20 * 1024, 500 + i));
    auto put = cloud.client->Put(StrCat("file-", i), contents.back());
    ASSERT_TRUE(put.ok()) << put.status();
  }
  for (int i = 0; i < kFiles; ++i) {
    auto get = cloud.client->Get(StrCat("file-", i));
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_EQ(get->content, contents[i]);
  }

  // Silent data loss on one provider, then a scrub pass heals it.
  auto destroyed = cloud.faults[2]->DestroyRandomObjects(1.0);
  ASSERT_TRUE(destroyed.ok());
  EXPECT_GT(*destroyed, 0u);
  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->stats.chunks_repaired, 0u);

  // Pipeline counters match what the run actually did.
  EXPECT_EQ(cloud.registry.GetCounter("cyrus_client_puts_total")->value(),
            static_cast<uint64_t>(kFiles));
  EXPECT_EQ(cloud.registry.GetCounter("cyrus_client_gets_total")->value(),
            static_cast<uint64_t>(kFiles));
  EXPECT_EQ(cloud.registry.GetCounter("cyrus_scrub_passes_total")->value(), 1u);
  EXPECT_EQ(cloud.registry.GetCounter("cyrus_scrub_chunks_repaired_total")->value(),
            report->stats.chunks_repaired);
  EXPECT_EQ(cloud.registry.GetCounter("cyrus_fault_objects_destroyed_total",
                                      {{"csp", "csp2"}})
                ->value(),
            *destroyed);
  EXPECT_GT(cloud.registry
                .GetCounter("cyrus_transfer_requests_total",
                            {{"kind", "PUT"}, {"result", "ok"}})
                ->value(),
            0u);

  // Cross-layer consistency: the metrics decorator and the fault injector
  // wrap the same call stream, so their per-CSP counts must agree exactly.
  for (int i = 0; i < kNumCsps; ++i) {
    EXPECT_EQ(cloud.DataPathOps(i), cloud.faults[i]->counters().calls)
        << "csp" << i;
    EXPECT_GT(cloud.OpCount(i, "upload", "ok"), 0u) << "csp" << i;
  }

  // Latency percentiles are non-empty for every series that recorded.
  size_t histograms_seen = 0;
  for (const obs::MetricSnapshot& m : cloud.registry.Snapshot().metrics) {
    if (m.kind != obs::InstrumentKind::kHistogram || m.histogram.count == 0) {
      continue;
    }
    ++histograms_seen;
    EXPECT_GT(m.histogram.Percentile(50), 0.0) << m.name;
    EXPECT_GE(m.histogram.Percentile(99), m.histogram.Percentile(50)) << m.name;
  }
  EXPECT_GT(histograms_seen, 0u);
  EXPECT_EQ(cloud.registry.GetHistogram("cyrus_client_put_latency_ms")
                ->Snapshot()
                .count,
            static_cast<uint64_t>(kFiles));

  // Traces carry the stage timeline of each pipeline.
  obs::Trace trace;
  ASSERT_TRUE(cloud.traces.Latest("Put", &trace));
  for (const char* stage : {"chunking", "hash_chunks", "encode", "place", "upload",
                            "publish_meta"}) {
    EXPECT_NE(trace.FindSpan(stage), nullptr) << stage;
  }
  ASSERT_TRUE(cloud.traces.Latest("Get", &trace));
  for (const char* stage : {"sync_meta", "select", "gather", "assemble"}) {
    EXPECT_NE(trace.FindSpan(stage), nullptr) << stage;
  }
  ASSERT_TRUE(cloud.traces.Latest("ScrubOnce", &trace));
  for (const char* stage : {"probe", "scan", "repair"}) {
    EXPECT_NE(trace.FindSpan(stage), nullptr) << stage;
  }
}

TEST(ObsEndToEndTest, RetryCountMatchesInjectedTransientErrors) {
  // Retries record into the process-wide default registry (they fire below
  // the layer that knows about per-client registries), so assert on deltas.
  obs::Counter* retry_attempts =
      obs::MetricsRegistry::Default().GetCounter("cyrus_retry_attempts_total");
  const uint64_t retries_before = retry_attempts->value();

  ObservedCloud cloud(/*transient_prob=*/0.15);
  constexpr int kFiles = 4;
  std::vector<Bytes> contents;
  for (int i = 0; i < kFiles; ++i) {
    contents.push_back(RandomContent(16 * 1024, 700 + i));
    auto put = cloud.client->Put(StrCat("flaky-", i), contents.back());
    ASSERT_TRUE(put.ok()) << put.status();
  }
  for (int i = 0; i < kFiles; ++i) {
    auto get = cloud.client->Get(StrCat("flaky-", i));
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_EQ(get->content, contents[i]);
  }
  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();

  // Every injected transient error is a retryable kUnavailable inside a
  // RetryWithBackoff loop whose budget (8 attempts) the seeded 15% fault
  // rate never exhausts, so retries == injected transient errors, exactly.
  uint64_t injected = 0;
  for (const auto& fault : cloud.faults) {
    injected += fault->counters().transient_errors;
    EXPECT_EQ(fault->counters().outage_errors, 0u);
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(retry_attempts->value() - retries_before, injected);

  // The error series the metrics decorator files must agree with the
  // injector: every injected failure surfaced as unavailable.
  uint64_t observed_unavailable = 0;
  for (int i = 0; i < kNumCsps; ++i) {
    for (const char* op : {"list", "upload", "download", "delete"}) {
      observed_unavailable +=
          cloud.registry
              .GetCounter("cyrus_csp_errors_total", {{"csp", StrCat("csp", i)},
                                                     {"op", op},
                                                     {"code", "unavailable"}})
              ->value();
    }
  }
  EXPECT_EQ(observed_unavailable, injected);
}

TEST(ObsEndToEndTest, MetricsEndpointServesBothFormats) {
  ObservedCloud cloud;
  auto put = cloud.client->Put("scraped", RandomContent(8 * 1024, 11));
  ASSERT_TRUE(put.ok()) << put.status();

  RestVendorOptions options;
  options.id = "obs-vendor";
  options.metrics = &cloud.registry;
  RestVendorServer server(options);

  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.path = "/metrics";
  HttpResponse text = server.Handle(request);
  EXPECT_EQ(text.status, 200);
  const std::string body = ToString(text.body);
  EXPECT_NE(body.find("# TYPE cyrus_csp_ops_total counter"), std::string::npos);
  EXPECT_NE(body.find("cyrus_csp_op_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);

  request.query["format"] = "json";
  HttpResponse json = server.Handle(request);
  EXPECT_EQ(json.status, 200);
  auto parsed = JsonValue::Parse(ToString(json.body));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  bool found_ops = false;
  for (const JsonValue& metric : (*parsed)["metrics"].AsArray()) {
    if (metric["name"].AsString() != "cyrus_csp_ops_total" ||
        metric["labels"]["op"].AsString() != "upload" ||
        metric["labels"]["result"].AsString() != "ok") {
      continue;
    }
    found_ops = true;
    // The JSON view must agree with the live registry, label for label.
    const std::string csp = metric["labels"]["csp"].AsString();
    EXPECT_EQ(static_cast<uint64_t>(metric["value"].AsNumber()),
              cloud.registry
                  .GetCounter("cyrus_csp_ops_total",
                              {{"csp", csp}, {"op", "upload"}, {"result", "ok"}})
                  ->value());
  }
  EXPECT_TRUE(found_ops);

  // The endpoint answers even while the vendor simulates an outage, and
  // stays GET-only.
  server.set_available(false);
  EXPECT_EQ(server.Handle(request).status, 200);
  request.method = HttpMethod::kPost;
  EXPECT_EQ(server.Handle(request).status, 405);
}

}  // namespace
}  // namespace cyrus
