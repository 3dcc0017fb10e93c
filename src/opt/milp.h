// Branch-and-bound for LPs with binary {0,1} variables.
//
// Depth-first branch-and-bound over the LP relaxation. Exact, but
// exponential in the number of binaries: it backs the one-shot
// ExactMilpDownloadSelector ablation baseline, not the online selector.
#ifndef SRC_OPT_MILP_H_
#define SRC_OPT_MILP_H_

#include <vector>

#include "src/opt/lp.h"
#include "src/util/result.h"

namespace cyrus {

struct MilpOptions {
  // Safety valve on explored nodes; the selector's problems need far fewer.
  size_t max_nodes = 100000;
  // A candidate LP value must beat the incumbent by this much to recurse.
  double bound_tolerance = 1e-7;
};

// Solves: minimize the LP objective subject to problem's constraints, with
// x[i] in {0,1} for every i in binary_vars (bounds x[i] <= 1 are added
// automatically). Other variables stay continuous and nonnegative.
//
// Returns kFailedPrecondition if no integer-feasible point exists.
Result<LpSolution> SolveBinaryMilp(const LpProblem& problem,
                                   const std::vector<size_t>& binary_vars,
                                   const MilpOptions& options = {});

}  // namespace cyrus

#endif  // SRC_OPT_MILP_H_
