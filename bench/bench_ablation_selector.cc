// Ablation: how much does Algorithm 1's relaxation actually buy?
//
// The paper motivates its relaxation-based online selector by (a) the
// exponential C(t,n)^R search space of exact selection (footnote 12) and
// (b) the poor quality of one-shot heuristics. This bench quantifies both
// on random heterogeneous instances:
//   quality: predicted completion vs the exact one-shot MILP optimum and
//            vs greedy-fastest / random / round-robin;
//   cost:    wall-clock per Select() call as the chunk count grows.
//
// Hard bar (non-zero exit): on every row, cyrus's mean ratio must not
// exceed greedy-fastest's, nor the mean ratio Algorithm 1's per-chunk
// branch-and-bound fixing loop reached on the same instances (kRows).
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/opt/download_selector.h"
#include "src/util/rng.h"

namespace {

using namespace cyrus;

DownloadProblem RandomProblem(size_t chunks, size_t csps, uint32_t t, Rng& rng) {
  DownloadProblem p;
  p.t = t;
  for (size_t c = 0; c < csps; ++c) {
    p.csp_bandwidth.push_back(rng.NextDouble(1e6, 20e6));
  }
  for (size_t r = 0; r < chunks; ++r) {
    DownloadChunk chunk;
    chunk.share_bytes = rng.NextDouble(0.5e6, 6e6);
    // Shares stored on a random subset of size n = t + 2.
    std::vector<int> pool(csps);
    for (size_t c = 0; c < csps; ++c) {
      pool[c] = static_cast<int>(c);
    }
    for (size_t k = 0; k < t + 2 && k < csps; ++k) {
      const size_t j = k + rng.NextBelow(pool.size() - k);
      std::swap(pool[k], pool[j]);
      chunk.stored_at.push_back(pool[k]);
    }
    p.chunks.push_back(std::move(chunk));
  }
  return p;
}

// Mean ratios of Algorithm 1's per-chunk fixing loop on this bench's rows,
// as recorded in EXPERIMENTS.md.
struct RowBar {
  size_t chunks;
  double fixing_loop_mean_ratio;
};
constexpr RowBar kRows[] = {{2, 1.009}, {4, 1.002}, {6, 1.034}, {8, 1.026}};

struct Aggregate {
  double time_ratio_sum = 0.0;  // selector / exact optimum
  double worst_ratio = 0.0;
  double select_micros = 0.0;
  int runs = 0;
};

}  // namespace

int main() {
  constexpr int kTrials = 10;
  constexpr size_t kCsps = 6;
  constexpr uint32_t kT = 2;

  std::printf("Ablation: download selection quality vs the exact MILP optimum\n");
  std::printf("(%d random instances per size; 6 CSPs, t=2, n=4 per chunk)\n\n", kTrials);
  std::printf("%6s | %22s | %22s | %22s | %22s\n", "chunks", "cyrus (relax+round)",
              "greedy-fastest", "round-robin", "random");
  std::printf("%6s | %11s %10s | %11s %10s | %11s %10s | %11s %10s\n", "", "mean-ratio",
              "worst", "mean-ratio", "worst", "mean-ratio", "worst", "mean-ratio",
              "worst");

  bool pass = true;
  for (const RowBar& row : kRows) {
    const size_t chunks = row.chunks;
    std::vector<std::unique_ptr<DownloadSelector>> selectors;
    selectors.push_back(std::make_unique<OptimalDownloadSelector>());
    selectors.push_back(std::make_unique<GreedyFastestDownloadSelector>());
    selectors.push_back(std::make_unique<RoundRobinDownloadSelector>());
    selectors.push_back(std::make_unique<RandomDownloadSelector>(99));
    std::vector<Aggregate> agg(selectors.size());

    Rng rng(1000 + chunks);
    for (int trial = 0; trial < kTrials; ++trial) {
      DownloadProblem p = RandomProblem(chunks, kCsps, kT, rng);
      ExactMilpDownloadSelector exact;
      auto optimum = exact.Select(p);
      if (!optimum.ok() || optimum->predicted_seconds <= 0.0) {
        continue;
      }
      for (size_t s = 0; s < selectors.size(); ++s) {
        const auto start = std::chrono::steady_clock::now();
        auto assignment = selectors[s]->Select(p);
        const auto stop = std::chrono::steady_clock::now();
        if (!assignment.ok()) {
          continue;
        }
        const double ratio = assignment->predicted_seconds / optimum->predicted_seconds;
        agg[s].time_ratio_sum += ratio;
        agg[s].worst_ratio = std::max(agg[s].worst_ratio, ratio);
        agg[s].select_micros +=
            std::chrono::duration<double, std::micro>(stop - start).count();
        ++agg[s].runs;
      }
    }
    std::printf("%6zu |", chunks);
    for (const Aggregate& a : agg) {
      std::printf(" %11.3f %10.3f |", a.time_ratio_sum / a.runs, a.worst_ratio);
    }
    std::printf("\n");
    std::printf("%6s |", "us/call");
    for (const Aggregate& a : agg) {
      std::printf(" %22.0f |", a.select_micros / a.runs);
    }
    std::printf("\n");
    // selectors[0] is cyrus, selectors[1] greedy-fastest.
    const double cyrus_mean = agg[0].time_ratio_sum / agg[0].runs;
    const double greedy_mean = agg[1].time_ratio_sum / agg[1].runs;
    if (cyrus_mean > row.fixing_loop_mean_ratio || cyrus_mean > greedy_mean) {
      std::printf("FAIL: %zu chunks: cyrus mean ratio %.3f above the fixing loop's %.3f "
                  "or greedy-fastest's %.3f\n",
                  chunks, cyrus_mean, row.fixing_loop_mean_ratio, greedy_mean);
      pass = false;
    }
  }
  std::printf(
      "\nReading: ratios are completion time / exact optimum (1.000 = optimal).\n"
      "The relaxation plus local search stays near-optimal at a cost of\n"
      "microseconds; greedy-fastest piles every chunk onto the same clouds and\n"
      "degrades as the batch grows.\n");
  return pass ? 0 : 1;
}
