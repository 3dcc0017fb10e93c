// A dense two-phase primal simplex LP solver.
//
// This is the optimization substrate behind CYRUS's downlink CSP selection
// (paper §4.3, Algorithm 1). Problems there are small (variables = distinct
// holder sets x CSPs for one file transfer), so a dense tableau with
// Bland's anti-cycling rule is simple, robust, and fast enough.
//
// Problem form:   minimize    c . x
//                 subject to  a_i . x  (<= | = | >=)  b_i   for each row i
//                             x >= 0
// Upper bounds are expressed as ordinary <= rows by the caller.
#ifndef SRC_OPT_LP_H_
#define SRC_OPT_LP_H_

#include <vector>

#include "src/util/result.h"

namespace cyrus {

enum class LpRelation { kLessEqual, kEqual, kGreaterEqual };

struct LpConstraint {
  std::vector<double> coeffs;  // one per variable
  LpRelation relation = LpRelation::kLessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  size_t num_vars = 0;
  std::vector<double> objective;  // minimized; one per variable
  std::vector<LpConstraint> constraints;

  // Builders keep call sites readable.
  void AddLessEqual(std::vector<double> coeffs, double rhs);
  void AddEqual(std::vector<double> coeffs, double rhs);
  void AddGreaterEqual(std::vector<double> coeffs, double rhs);
  // x[var] <= bound.
  void AddUpperBound(size_t var, double bound);
};

struct LpSolution {
  std::vector<double> x;
  double objective = 0.0;
};

// Solves the LP. Returns:
//   kInvalidArgument    on malformed input (dimension mismatch),
//   kFailedPrecondition if infeasible,
//   kResourceExhausted  if unbounded below.
Result<LpSolution> SolveLp(const LpProblem& problem);

}  // namespace cyrus

#endif  // SRC_OPT_LP_H_
