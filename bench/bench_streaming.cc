// Range reads, the ARC chunk cache, and readahead (the streaming tentpole).
//
// Three phases, each with a hard acceptance bar:
//   1. byte accounting - a range Get of 1% of a 64 MB file must download
//      < 5% of the file's bytes and decode only the covering chunks;
//   2. warm-cache TTFB - p99 time-to-first-byte of cached ranges must be
//      >= 10x better than cold fetches over throttled links;
//   3. rebuffers - a paced playback loop over one slow CSP must rebuffer
//      >= 2x less with readahead on than off.
//
// Links are throttled with the same ThrottledConnector discipline as
// bench_pipeline: each transfer sleeps rtt + bytes/bandwidth of real time,
// with no lock held, so concurrent requests overlap. Emits
// BENCH_streaming.json; exits non-zero if any bar fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/cloud/connector.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/core/reliability.h"
#include "src/rest/json.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

class ThrottledConnector : public CloudConnector {
 public:
  ThrottledConnector(std::shared_ptr<CloudConnector> inner,
                     double bytes_per_sec, double rtt_ms)
      : inner_(std::move(inner)),
        bytes_per_sec_(bytes_per_sec),
        rtt_ms_(rtt_ms) {}

  std::string_view id() const override { return inner_->id(); }
  Status Authenticate(const Credentials& credentials) override {
    return inner_->Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Upload(std::string_view name, ByteSpan data) override {
    Charge(data.size());
    return inner_->Upload(name, data);
  }
  Result<Bytes> Download(std::string_view name) override {
    auto result = inner_->Download(name);
    if (result.ok()) {
      Charge(result->size());
    }
    return result;
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

 private:
  void Charge(size_t bytes) const {
    const double seconds =
        rtt_ms_ / 1e3 + static_cast<double>(bytes) / bytes_per_sec_;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  }

  std::shared_ptr<CloudConnector> inner_;
  double bytes_per_sec_;
  double rtt_ms_;
};

constexpr int kNumCsps = 5;
constexpr double kFastBps = 512e3;
constexpr double kSlowBps = 64e3;
constexpr double kFastRttMs = 0.5;
constexpr double kSlowRttMs = 2.0;

struct StreamBed {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

struct BedSpec {
  uint32_t chunk_bytes = 4 * 1024;  // fixed-size chunks (min == max)
  int slow_csps = 0;                // first N connectors get the slow link
  bool throttled = false;           // false: raw in-memory CSPs
  uint32_t readahead_chunks = 0;
  uint64_t seed = 1;
};

StreamBed MakeBed(const BedSpec& spec) {
  StreamBed bed;

  CyrusConfig config;
  config.client_id = "bench-streaming";
  config.key_string = StrCat("streaming-key-", spec.seed);
  config.t = 2;
  config.cluster_aware = false;
  config.transfer_concurrency = 16;
  config.readahead_chunks = spec.readahead_chunks;
  // Pin Eq. (1) to n = kNumCsps (as bench_pipeline does) so every chunk
  // stores a share on every CSP and the beds are comparable.
  config.default_failure_prob = 0.01;
  const double loss_n =
      ChunkLossProbability(config.t, kNumCsps, config.default_failure_prob);
  const double loss_prev =
      ChunkLossProbability(config.t, kNumCsps - 1, config.default_failure_prob);
  config.epsilon = std::sqrt(loss_n * loss_prev);
  config.chunker.modulus = spec.chunk_bytes;
  config.chunker.min_chunk_size = spec.chunk_bytes;
  config.chunker.max_chunk_size = spec.chunk_bytes;

  auto client = CyrusClient::Create(std::move(config));
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    std::abort();
  }
  bed.client = std::move(client).value();

  for (int i = 0; i < kNumCsps; ++i) {
    const bool slow = i < spec.slow_csps;
    SimulatedCspOptions o;
    o.id = StrCat(slow ? "slow" : "fast", i);
    auto csp = std::make_shared<SimulatedCsp>(o);
    bed.csps.push_back(csp);
    std::shared_ptr<CloudConnector> conn = csp;
    if (spec.throttled) {
      conn = std::make_shared<ThrottledConnector>(
          csp, slow ? kSlowBps : kFastBps, slow ? kSlowRttMs : kFastRttMs);
    }
    CspProfile profile;
    profile.rtt_ms = slow ? kSlowRttMs : kFastRttMs;
    profile.download_bytes_per_sec = slow ? kSlowBps : kFastBps;
    profile.upload_bytes_per_sec = slow ? kSlowBps : kFastBps;
    auto added = bed.client->AddCsp(conn, profile, Credentials{"token"});
    if (!added.ok()) {
      std::fprintf(stderr, "AddCsp: %s\n", added.status().ToString().c_str());
      std::abort();
    }
  }
  return bed;
}

Bytes MakeContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool g_failed = false;

void Bar(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    g_failed = true;
  }
}

}  // namespace
}  // namespace cyrus

int main() {
  using namespace cyrus;
  using bench::BenchReport;
  using bench::Percentile;

  BenchReport report("streaming");
  report.SetParam("t", uint64_t{2});
  report.SetParam("n", uint64_t{kNumCsps});
  report.SetParam("fast_bytes_per_sec", kFastBps);
  report.SetParam("slow_bytes_per_sec", kSlowBps);

  // --- Phase 1: byte accounting on a 64 MB file ---------------------------
  // Unthrottled (raw in-memory CSPs): the claim is about *bytes moved and
  // chunks decoded*, not wall-clock.
  {
    constexpr uint64_t kFileBytes = 64ull << 20;
    constexpr uint32_t kChunkBytes = 64 * 1024;
    constexpr uint64_t kRangeBytes = kFileBytes / 100;  // 1%
    BedSpec spec;
    spec.chunk_bytes = kChunkBytes;
    spec.seed = 101;
    StreamBed bed = MakeBed(spec);
    const Bytes content = MakeContent(kFileBytes, 101);
    auto put = bed.client->Put("large.bin", content);
    if (!put.ok()) {
      std::fprintf(stderr, "Put: %s\n", put.status().ToString().c_str());
      return 1;
    }

    const uint64_t offset = 31ull << 20;  // mid-file, chunk-unaligned
    auto got = bed.client->GetRange("large.bin", offset + 137, kRangeBytes);
    if (!got.ok()) {
      std::fprintf(stderr, "GetRange: %s\n", got.status().ToString().c_str());
      return 1;
    }
    const bool bytes_match =
        std::equal(got->content.begin(), got->content.end(),
                   content.begin() + static_cast<ptrdiff_t>(offset + 137));
    const uint64_t downloaded = got->transfer.TotalBytes(TransferKind::kGet);
    const double fraction =
        static_cast<double>(downloaded) / static_cast<double>(kFileBytes);
    const uint64_t covering = kRangeBytes / kChunkBytes + 2;

    std::printf("Phase 1: range Get of 1%% of a 64 MB file\n");
    std::printf("  downloaded %8.2f KB (%.2f%% of file), decoded %zu/%llu chunks\n\n",
                downloaded / 1024.0, fraction * 100.0, got->chunks_decoded,
                static_cast<unsigned long long>(put->total_chunks));
    Bar(bytes_match, "phase1: range content mismatch");
    Bar(fraction < 0.05, "phase1: range Get downloaded >= 5% of the file");
    Bar(got->chunks_decoded <= covering,
        "phase1: decoded chunks beyond the covering set");

    JsonValue row{JsonValue::Object{}};
    row.Set("phase", "byte-accounting");
    row.Set("file_bytes", kFileBytes);
    row.Set("range_bytes", kRangeBytes);
    row.Set("downloaded_bytes", downloaded);
    row.Set("downloaded_fraction", fraction);
    row.Set("chunks_decoded", uint64_t{got->chunks_decoded});
    row.Set("chunks_total", put->total_chunks);
    report.AddRow(std::move(row));
  }

  // --- Phase 2: cold vs warm TTFB over throttled links --------------------
  {
    constexpr uint32_t kChunkBytes = 4 * 1024;
    constexpr uint64_t kFileBytes = 512 * 1024;
    constexpr uint64_t kProbeBytes = 4 * 1024;
    constexpr int kProbes = 30;
    BedSpec spec;
    spec.chunk_bytes = kChunkBytes;
    spec.slow_csps = 1;
    spec.throttled = true;
    spec.seed = 202;
    StreamBed bed = MakeBed(spec);
    const Bytes content = MakeContent(kFileBytes, 202);
    if (!bed.client->Put("ttfb.bin", content).ok()) {
      return 1;
    }

    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    // Strided probes, far enough apart that the sequential detector never
    // arms: every cold sample pays the network.
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < kProbes; ++i) {
        const uint64_t offset = static_cast<uint64_t>(i) * 16 * 1024;
        const double start = NowMs();
        auto got = bed.client->GetRange("ttfb.bin", offset, kProbeBytes);
        const double elapsed = NowMs() - start;
        if (!got.ok()) {
          std::fprintf(stderr, "GetRange: %s\n",
                       got.status().ToString().c_str());
          return 1;
        }
        (pass == 0 ? cold_ms : warm_ms).push_back(elapsed);
      }
    }
    const double cold_p99 = Percentile(cold_ms, 99.0);
    const double warm_p99 = Percentile(warm_ms, 99.0);
    const double ratio = warm_p99 > 0 ? cold_p99 / warm_p99 : 0.0;
    const auto& cache = bed.client->chunk_cache().stats();

    std::printf("Phase 2: TTFB, cold vs warm cache (throttled, one slow CSP)\n");
    std::printf("  cold p99 %7.2f ms | warm p99 %7.3f ms | %.0fx (bar: 10x)\n",
                cold_p99, warm_p99, ratio);
    std::printf("  cache: %llu hits, %llu misses, %.0f KB resident\n\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.bytes / 1024.0);
    Bar(ratio >= 10.0, "phase2: warm-cache p99 TTFB improvement below 10x");

    JsonValue row{JsonValue::Object{}};
    row.Set("phase", "ttfb");
    row.Set("cold_p99_ms", cold_p99);
    row.Set("warm_p99_ms", warm_p99);
    row.Set("improvement", ratio);
    row.Set("cache_hits", cache.hits);
    row.Set("cache_misses", cache.misses);
    report.AddRow(std::move(row));
  }

  // --- Phase 3: rebuffers with readahead on vs off ------------------------
  // A paced playback loop: fetch segment i, then "play" it for the segment
  // duration. The duration sits below the cold fetch time, so a player
  // with no readahead rebuffers on (nearly) every segment; with readahead
  // the prefetches land during playback and fetches become cache hits.
  {
    constexpr uint32_t kChunkBytes = 4 * 1024;
    constexpr uint64_t kSegmentBytes = 8 * 1024;
    constexpr int kSegments = 24;
    constexpr double kSegmentMs = 5.0;

    auto play = [&](uint32_t readahead_chunks, uint64_t seed) -> int {
      BedSpec spec;
      spec.chunk_bytes = kChunkBytes;
      spec.slow_csps = 1;
      spec.throttled = true;
      spec.readahead_chunks = readahead_chunks;
      spec.seed = seed;
      StreamBed bed = MakeBed(spec);
      const Bytes content = MakeContent(kSegmentBytes * kSegments, seed);
      if (!bed.client->Put("video.bin", content).ok()) {
        std::abort();
      }
      int rebuffers = 0;
      for (int i = 0; i < kSegments; ++i) {
        const double start = NowMs();
        auto got = bed.client->GetRange("video.bin",
                                        static_cast<uint64_t>(i) * kSegmentBytes,
                                        kSegmentBytes);
        const double fetch_ms = NowMs() - start;
        if (!got.ok()) {
          std::abort();
        }
        if (fetch_ms > kSegmentMs) {
          ++rebuffers;  // the fetch outlasted the playout buffer
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            kSegmentMs));
      }
      return rebuffers;
    };

    const int off = play(/*readahead_chunks=*/0, 303);
    const int on = play(/*readahead_chunks=*/8, 303);
    std::printf("Phase 3: paced playback, %d segments of %llu KB (one slow CSP)\n",
                kSegments,
                static_cast<unsigned long long>(kSegmentBytes / 1024));
    std::printf("  rebuffers: readahead off %2d | on %2d (bar: >= 2x fewer)\n\n",
                off, on);
    Bar(off >= 2 * std::max(on, 1) || (on == 0 && off >= 2),
        "phase3: readahead cut rebuffers by less than 2x");

    JsonValue row{JsonValue::Object{}};
    row.Set("phase", "rebuffers");
    row.Set("segments", uint64_t{kSegments});
    row.Set("segment_ms", kSegmentMs);
    row.Set("rebuffers_readahead_off", uint64_t{static_cast<uint64_t>(off)});
    row.Set("rebuffers_readahead_on", uint64_t{static_cast<uint64_t>(on)});
    report.AddRow(std::move(row));
  }

  std::printf("wrote %s\n", report.Write().c_str());
  return g_failed ? 1 : 0;
}
