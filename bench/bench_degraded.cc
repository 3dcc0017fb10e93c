// Degraded-mode transfer engine: availability and tail latency under
// injected CSP outages and a slow provider (quorum writes, and download
// selection over rates learned from the client's own transfers).
//
// Two scenario families, both over the fault-injecting connector layer,
// each run with static and with learned rates:
//
//   outage grid - 0/1/2 CSPs permanently down. Every trial Puts a fresh
//     multi-chunk file and Gets it back; with a failure budget of 2 the
//     quorum engine must keep Put availability at 1.0 while booking the
//     missing shares as repair debt, and Get must keep reconstructing
//     from the surviving quorum.
//
//   slow-CSP tail - one provider sleeps a uniform [0, 30] real ms per call
//     while advertising the fastest link and a 1 ms RTT. With static
//     rates (a bench-local selector that hands Algorithm 1 the advertised
//     rates) it is in the primary set of every chunk, and every Get waits
//     out its sleeps. With learned rates the client prices it by its
//     median excess over that profile, which the first Put's uploads
//     already show, and Gets stop downloading shares from it. Reported as
//     Get p50/p99 over repeated single-file Gets, plus the Get downloads
//     csp0 served.
//
// Emits BENCH_degraded.json. Exits non-zero when
//   - Put or Get availability drops below 1.0 anywhere in the grid,
//   - learned rates raise the no-fault Get p50 by more than 10% (+1 ms
//     timer-noise slack) over static rates, or
//   - the learned-rate Get p99 under the slow CSP is not at least 1.5x
//     better than the static-rate one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/opt/download_selector.h"
#include "src/rest/json.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 5;
constexpr size_t kFileBytes = 16 * 1024;  // 16 x 1 KB chunks
constexpr int kTrials = 20;
constexpr double kSlowSleepMaxMs = 30.0;

// Advertised download rates: csp0 claims the best link.
std::vector<double> AdvertisedDownloadRates() {
  std::vector<double> rates(kNumCsps, 8e6);
  rates[0] = 50e6;
  return rates;
}

// The static-rate comparator: Algorithm 1 over the advertised rates,
// whatever the client has learned about its CSPs.
class AdvertisedRateSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "advertised"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override {
    DownloadProblem advertised = problem;
    advertised.csp_bandwidth = AdvertisedDownloadRates();
    return optimal_.Select(advertised);
  }

 private:
  OptimalDownloadSelector optimal_;
};

struct DegradedBed {
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::unique_ptr<CyrusClient> client;
  std::unique_ptr<obs::MetricsRegistry> metrics;
};

DegradedBed MakeBed(bool learned, int downed_csps, double slow_csp0_ms,
                    uint64_t seed) {
  DegradedBed bed;
  bed.metrics = std::make_unique<obs::MetricsRegistry>();

  CyrusConfig config;
  config.client_id = "bench-degraded";
  config.key_string = StrCat("degraded-key-", seed);
  config.t = 2;
  config.cluster_aware = false;
  config.transfer_concurrency = 4;
  // Pin Eq. (1) off its feasible range so every chunk targets n = kNumCsps
  // shares: outages then force genuinely degraded writes and the slow CSP
  // holds a share of every chunk.
  config.default_failure_prob = 0.5;
  config.epsilon = 1e-9;
  config.put_failure_budget = 2;
  // Fixed 1 KB chunks so every trial moves identical bytes.
  config.chunker.modulus = 1024;
  config.chunker.min_chunk_size = 1024;
  config.chunker.max_chunk_size = 1024;
  config.transfer_retry.max_attempts = 2;
  config.transfer_retry.initial_backoff_ms = 1.0;
  config.transfer_retry.seed = seed;
  config.metrics = bed.metrics.get();
  auto client = CyrusClient::Create(std::move(config));
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    std::abort();
  }
  bed.client = std::move(client).value();
  if (!learned) {
    bed.client->set_download_selector(std::make_unique<AdvertisedRateSelector>());
  }

  for (int i = 0; i < kNumCsps; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("csp", i);
    FaultInjectionOptions faults;
    faults.seed = seed * 131 + static_cast<uint64_t>(i);
    faults.metrics = bed.metrics.get();
    if (i == 0) {
      faults.real_sleep_max_ms = slow_csp0_ms;
    }
    auto injector = std::make_shared<FaultInjectingConnector>(
        std::make_shared<SimulatedCsp>(o), faults);
    bed.faults.push_back(injector);
    CspProfile profile;
    profile.rtt_ms = 1.0;
    // The slow CSP advertises the best link, so static rates always put it
    // in the primary download set.
    profile.download_bytes_per_sec = AdvertisedDownloadRates()[i];
    profile.upload_bytes_per_sec = 5e6;
    auto added = bed.client->AddCsp(injector, profile, Credentials{"token"});
    if (!added.ok()) {
      std::fprintf(stderr, "AddCsp: %s\n", added.status().ToString().c_str());
      std::abort();
    }
  }
  // Outages begin after registration (AddCsp authenticates): the providers
  // die once the session is up, which is when outages actually happen.
  for (int i = 0; i < downed_csps; ++i) {
    bed.faults[kNumCsps - 1 - i]->set_permanently_down(true);
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

struct GridCell {
  double put_availability = 0.0;
  double get_availability = 0.0;
  double get_p50_ms = 0.0;
  double get_p99_ms = 0.0;
  double put_p50_ms = 0.0;
  uint64_t missing_shares = 0;
  uint64_t csp0_get_downloads = 0;  // shares csp0 served to Gets
};

// One grid cell: `kTrials` fresh files through one bed; every trial is a
// Put (counted against availability) followed by a Get (verified bytes).
GridCell RunCell(bool learned, int downed_csps, double slow_csp0_ms,
                 uint64_t seed) {
  DegradedBed bed = MakeBed(learned, downed_csps, slow_csp0_ms, seed);
  GridCell cell;
  std::vector<double> put_ms;
  std::vector<double> get_ms;
  int put_ok = 0;
  int get_ok = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Bytes content = MakeContent(kFileBytes, seed ^ (0x9E37 + trial));
    const std::string name = StrCat("file-", trial, ".bin");

    const double put_start = NowMs();
    auto put = bed.client->Put(name, content);
    put_ms.push_back(NowMs() - put_start);
    if (!put.ok()) {
      continue;
    }
    ++put_ok;
    cell.missing_shares += put->missing_shares;

    const double get_start = NowMs();
    auto get = bed.client->Get(name);
    get_ms.push_back(NowMs() - get_start);
    if (get.ok() && get->content == content) {
      ++get_ok;
      for (const TransferRecord& r : get->transfer.records) {
        cell.csp0_get_downloads += r.kind == TransferKind::kGet && r.csp == 0 && r.success;
      }
    }
  }
  cell.put_availability = static_cast<double>(put_ok) / kTrials;
  cell.get_availability = static_cast<double>(get_ok) / kTrials;
  cell.put_p50_ms = bench::Percentile(put_ms, 50.0);
  if (!get_ms.empty()) {
    cell.get_p50_ms = bench::Percentile(get_ms, 50.0);
    cell.get_p99_ms = bench::Percentile(get_ms, 99.0);
  }
  return cell;
}

}  // namespace
}  // namespace cyrus

int main() {
  using namespace cyrus;
  using bench::BenchReport;

  std::printf(
      "Degraded-mode transfer engine: %d CSPs, t=2, n=%d, budget=2,\n"
      "%d trials of a %zu-byte file per cell. Outage rows kill the last\n"
      "0/1/2 providers; the slow-CSP rows make csp0 sleep U[0, %.0f] real\n"
      "ms per call while advertising the fastest link.\n\n",
      kNumCsps, kNumCsps, kTrials, kFileBytes, kSlowSleepMaxMs);

  BenchReport report("degraded");
  report.SetParam("t", uint64_t{2});
  report.SetParam("n", uint64_t{kNumCsps});
  report.SetParam("put_failure_budget", uint64_t{2});
  report.SetParam("file_bytes", uint64_t{kFileBytes});
  report.SetParam("trials_per_cell", uint64_t{kTrials});
  report.SetParam("slow_sleep_max_ms", kSlowSleepMaxMs);

  std::printf("%-10s %-7s | %7s %7s | %9s %9s %9s | %8s %9s\n", "scenario",
              "rates", "put_av", "get_av", "put_p50", "get_p50", "get_p99",
              "missing", "csp0_gets");

  bool failed = false;
  double nofault_p50[2] = {0.0, 0.0};  // [static, learned]
  double slow_get_p99[2] = {0.0, 0.0};
  auto report_row = [&](const std::string& scenario, int down, bool learned,
                        const GridCell& cell) {
    std::printf("%-10s %-7s | %7.2f %7.2f | %8.1fms %8.1fms %8.1fms | %8llu %9llu\n",
                scenario.c_str(), learned ? "learned" : "static", cell.put_availability,
                cell.get_availability, cell.put_p50_ms, cell.get_p50_ms, cell.get_p99_ms,
                static_cast<unsigned long long>(cell.missing_shares),
                static_cast<unsigned long long>(cell.csp0_get_downloads));
    JsonValue row{JsonValue::Object{}};
    row.Set("scenario", scenario);
    row.Set("downed_csps", uint64_t{static_cast<uint64_t>(down)});
    row.Set("rates", learned ? "learned" : "static");
    row.Set("put_availability", cell.put_availability);
    row.Set("get_availability", cell.get_availability);
    row.Set("put_p50_ms", cell.put_p50_ms);
    row.Set("get_p50_ms", cell.get_p50_ms);
    row.Set("get_p99_ms", cell.get_p99_ms);
    row.Set("missing_shares", cell.missing_shares);
    row.Set("csp0_get_downloads", cell.csp0_get_downloads);
    report.AddRow(std::move(row));
  };

  for (const bool learned : {false, true}) {
    for (const int down : {0, 1, 2}) {
      const uint64_t seed = 7000 + 100 * down + (learned ? 1 : 0);
      const GridCell cell = RunCell(learned, down, /*slow_csp0_ms=*/0.0, seed);
      if (down == 0) {
        nofault_p50[learned ? 1 : 0] = cell.get_p50_ms;
      }
      if (cell.put_availability < 1.0 || cell.get_availability < 1.0) {
        std::fprintf(stderr,
                     "FAIL: availability below 1.0 with %d CSPs down "
                     "(put %.2f, get %.2f)\n",
                     down, cell.put_availability, cell.get_availability);
        failed = true;
      }
      if (down > 0 && cell.missing_shares == 0) {
        std::fprintf(stderr,
                     "FAIL: %d CSPs down but no degraded shares booked\n", down);
        failed = true;
      }
      report_row(StrCat("down-", down), down, learned, cell);
    }

    // The tail scenario: all providers up, csp0 slow.
    const uint64_t seed = 8000 + (learned ? 1 : 0);
    const GridCell cell = RunCell(learned, /*downed_csps=*/0, kSlowSleepMaxMs, seed);
    slow_get_p99[learned ? 1 : 0] = cell.get_p99_ms;
    if (cell.put_availability < 1.0 || cell.get_availability < 1.0) {
      std::fprintf(stderr, "FAIL: availability below 1.0 in the slow-CSP row\n");
      failed = true;
    }
    report_row("slow-csp0", 0, learned, cell);
  }

  const double tail_improvement =
      slow_get_p99[1] > 0.0 ? slow_get_p99[0] / slow_get_p99[1] : 0.0;
  std::printf(
      "\nHeadline: learned-rate Get p99 under one slow CSP is %.2fx better\n"
      "than static (%.1f ms -> %.1f ms); the acceptance bar is 1.5x.\n",
      tail_improvement, slow_get_p99[0], slow_get_p99[1]);

  JsonValue headline{JsonValue::Object{}};
  headline.Set("scenario", "headline");
  headline.Set("learned_p99_improvement", tail_improvement);
  headline.Set("nofault_p50_static_ms", nofault_p50[0]);
  headline.Set("nofault_p50_learned_ms", nofault_p50[1]);
  report.AddRow(std::move(headline));
  std::printf("wrote %s\n", report.Write().c_str());

  // Learning must be (near) free when nothing is wrong: 10% on the
  // no-fault p50, plus 1 ms of absolute slack because the baseline is
  // sub-10 ms and scheduler jitter alone can exceed 10% of it.
  if (nofault_p50[1] > nofault_p50[0] * 1.10 + 1.0) {
    std::fprintf(stderr,
                 "FAIL: learned rates regressed the no-fault Get p50 by >10%% "
                 "(%.2f ms -> %.2f ms)\n",
                 nofault_p50[0], nofault_p50[1]);
    failed = true;
  }
  if (tail_improvement < 1.5) {
    std::fprintf(stderr,
                 "FAIL: learned-rate p99 improvement %.2fx below the 1.5x bar\n",
                 tail_improvement);
    failed = true;
  }
  return failed ? 1 : 0;
}
