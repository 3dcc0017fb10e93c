// Downlink CSP selection (paper §4.3, Algorithm 1) and baseline selectors.
//
// Given R chunks whose shares live on subsets of C CSPs, pick t source CSPs
// per chunk and a bandwidth split so the parallel download finishes fast.
//
// The paper convexifies the min-max program (5)-(7) with a linear
// over-estimator of d^(1/2) and then fixes one chunk's selection variables
// to integers at a time via branch-and-bound. We keep Algorithm 1's
// relaxation but solve it exactly: for any share assignment d, the optimal
// static bandwidth split gives completion time
//     y(d) = max( sum_c L_c(d) / beta,  max_c L_c(d) / beta_bar_c ),
// where L_c is the load placed on CSP c - and y(d) is a maximum of linear
// functions of d, so minimizing it is a plain LP. Since y depends on d only
// through the loads, the LP needs one fraction vector per distinct holder
// set (at most C(C, n) of them), not one per chunk: it is solved once per
// Select, whatever R is. Its optimum y* bounds every assignment from below.
// Rounding: two integral starts (the relaxation's per-set loads dealt out
// chunk by chunk, and a size-ordered load-balancing greedy), each improved
// by a bounded local search of single-share moves and pairwise swaps.
#ifndef SRC_OPT_DOWNLOAD_SELECTOR_H_
#define SRC_OPT_DOWNLOAD_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/rng.h"

namespace cyrus {

// One chunk to fetch: the per-share byte count and the CSPs holding a share.
struct DownloadChunk {
  double share_bytes = 0.0;
  std::vector<int> stored_at;  // CSP indices with u_{r,c} = 1
};

struct DownloadProblem {
  std::vector<DownloadChunk> chunks;
  // Per-CSP achievable download bandwidth, bytes/second (beta_bar_c).
  std::vector<double> csp_bandwidth;
  // Client downlink cap in bytes/second (beta); <= 0 means uncapped.
  double client_bandwidth = 0.0;
  // Shares needed per chunk (the privacy parameter t).
  uint32_t t = 2;
};

struct DownloadAssignment {
  // selected[r] lists the t CSP indices chunk r downloads from.
  std::vector<std::vector<int>> selected;
  // Static per-CSP bandwidth allocation consistent with the predicted time.
  std::vector<double> allocated_bandwidth;
  // Completion-time estimate under the static-allocation model.
  double predicted_seconds = 0.0;
  // A lower bound on predicted_seconds over every feasible assignment (the
  // relaxation's optimum y*); 0 from selectors that do not compute one.
  double lower_bound_seconds = 0.0;
};

// Computes the model completion time and bandwidth split for a fixed
// assignment (shared by every selector so comparisons are apples-to-apples).
DownloadAssignment FinalizeAssignment(const DownloadProblem& problem,
                                      std::vector<std::vector<int>> selected);

class DownloadSelector {
 public:
  virtual ~DownloadSelector() = default;
  virtual std::string_view name() const = 0;
  virtual Result<DownloadAssignment> Select(const DownloadProblem& problem) = 0;

 protected:
  // Validates chunk feasibility (each chunk stored on >= t distinct CSPs
  // with known bandwidth); shared by implementations.
  static Status Validate(const DownloadProblem& problem);
};

// CYRUS's optimizer: Algorithm 1's relaxation solved once over holder sets,
// rounded by local search from two starts (see the file comment). Fills
// lower_bound_seconds with the relaxation's optimum.
class OptimalDownloadSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "cyrus"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;
};

// Uniform-random choice of t CSPs per chunk (paper's "random" baseline).
class RandomDownloadSelector : public DownloadSelector {
 public:
  explicit RandomDownloadSelector(uint64_t seed) : rng_(seed) {}
  std::string_view name() const override { return "random"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;

 private:
  Rng rng_;
};

// Round-robin over the CSP list (paper's "heuristic" baseline).
class RoundRobinDownloadSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "heuristic"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;

 private:
  size_t cursor_ = 0;
};

// Always the t highest-bandwidth CSPs holding each chunk (DepSky's greedy
// read policy; also the strawman discussed in §4.3).
class GreedyFastestDownloadSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "greedy-fastest"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;
};

// Exact one-shot solver: every d variable binary in a single
// branch-and-bound. Globally optimal under the static-allocation model but
// exponential in the worst case and not online - the ablation baseline
// the relaxation-and-rounding selector trades against
// (bench_ablation_selector).
class ExactMilpDownloadSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "exact-milp"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;
};

}  // namespace cyrus

#endif  // SRC_OPT_DOWNLOAD_SELECTOR_H_
