#include "src/opt/download_selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "src/opt/lp.h"
#include "src/opt/milp.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Completion time of a load vector under the optimal static bandwidth split:
// y = max( sum L / beta, max_c L_c / beta_bar_c ).
double CompletionTime(const std::vector<double>& loads, const DownloadProblem& problem) {
  double total = 0.0;
  double bottleneck = 0.0;
  for (size_t c = 0; c < loads.size(); ++c) {
    total += loads[c];
    if (loads[c] > 0.0) {
      bottleneck = std::max(bottleneck, loads[c] / problem.csp_bandwidth[c]);
    }
  }
  if (problem.client_bandwidth > 0.0) {
    bottleneck = std::max(bottleneck, total / problem.client_bandwidth);
  }
  return bottleneck;
}

}  // namespace

Status DownloadSelector::Validate(const DownloadProblem& problem) {
  if (problem.t == 0) {
    return InvalidArgumentError("t must be positive");
  }
  for (double bw : problem.csp_bandwidth) {
    if (bw <= 0.0) {
      return InvalidArgumentError("every CSP bandwidth must be positive");
    }
  }
  for (size_t r = 0; r < problem.chunks.size(); ++r) {
    const DownloadChunk& chunk = problem.chunks[r];
    if (chunk.stored_at.size() < problem.t) {
      return FailedPreconditionError(
          StrCat("chunk ", r, " has shares on only ", chunk.stored_at.size(),
                 " CSPs but t=", problem.t));
    }
    for (size_t k = 0; k < chunk.stored_at.size(); ++k) {
      const int c = chunk.stored_at[k];
      if (c < 0 || static_cast<size_t>(c) >= problem.csp_bandwidth.size()) {
        return InvalidArgumentError(StrCat("chunk ", r, " references unknown CSP ", c));
      }
      // A repeated holder would let a selector fetch the same share twice.
      if (std::find(chunk.stored_at.begin(), chunk.stored_at.begin() + k, c) !=
          chunk.stored_at.begin() + k) {
        return InvalidArgumentError(StrCat("chunk ", r, " lists CSP ", c, " twice"));
      }
    }
  }
  return OkStatus();
}

DownloadAssignment FinalizeAssignment(const DownloadProblem& problem,
                                      std::vector<std::vector<int>> selected) {
  std::vector<double> loads(problem.csp_bandwidth.size(), 0.0);
  for (size_t r = 0; r < selected.size(); ++r) {
    for (int c : selected[r]) {
      loads[c] += problem.chunks[r].share_bytes;
    }
  }
  DownloadAssignment out;
  out.selected = std::move(selected);
  out.predicted_seconds = CompletionTime(loads, problem);
  out.allocated_bandwidth.assign(loads.size(), 0.0);
  if (out.predicted_seconds > 0.0) {
    for (size_t c = 0; c < loads.size(); ++c) {
      out.allocated_bandwidth[c] = loads[c] / out.predicted_seconds;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// CYRUS optimizer: Algorithm 1's relaxation, rounded by local search.
// ---------------------------------------------------------------------------

namespace {

// Safety bound on local-search passes. Every pass applies at least one
// improving step, and on the problems a Get produces the search stops on
// its own long before this.
constexpr size_t kMaxLocalSearchPasses = 512;

// A step must shorten the larger of the two CSP times it touches by this
// relative margin, so float noise cannot make the search cycle.
constexpr double kMinImprovement = 1e-12;

// Chunks that share a holder set. The relaxed completion time depends on an
// assignment only through the per-CSP loads, so the relaxation needs one
// fraction vector per set rather than one per chunk.
struct HolderSet {
  std::vector<int> holders;    // sorted CSP indices
  std::vector<size_t> chunks;  // in `order`, i.e. largest share first
  double bytes = 0.0;          // B_s: total share bytes of the set's chunks
};

std::vector<HolderSet> GroupByHolders(const DownloadProblem& problem,
                                      const std::vector<size_t>& order) {
  std::map<std::vector<int>, size_t> index;
  std::vector<HolderSet> sets;
  for (size_t r : order) {
    std::vector<int> holders = problem.chunks[r].stored_at;
    std::sort(holders.begin(), holders.end());
    auto [it, inserted] = index.try_emplace(holders, sets.size());
    if (inserted) {
      sets.push_back(HolderSet{std::move(holders), {}, 0.0});
    }
    HolderSet& set = sets[it->second];
    set.chunks.push_back(r);
    set.bytes += problem.chunks[r].share_bytes;
  }
  return sets;
}

// Algorithm 1's relaxation over holder sets: minimize y subject to
//   sum_s B_s f_{s,c} <= beta_bar_c * y   for every CSP c,
//   t * sum_s B_s     <= beta * y         (client cap: the total load is
//                                          fixed because each set fetches
//                                          t shares' worth),
//   sum_{c in H_s} f_{s,c} = t,  0 <= f_{s,c} <= 1.
// Giving every chunk of a set its set's fraction vector maps a solution of
// the per-chunk relaxation to this one and back, so y* is the per-chunk
// relaxation's optimum and bounds every integral assignment from below.
// Time is measured in units of the fluid optimum so the tableau stays
// O(1).
struct Relaxation {
  double seconds = 0.0;                      // y*
  std::vector<std::vector<double>> targets;  // [s][k]: B_s * f_{s, holders[k]}
};

Result<Relaxation> SolveRelaxation(const DownloadProblem& problem,
                                   const std::vector<HolderSet>& sets) {
  Relaxation out;
  double total_bytes = 0.0;
  for (const HolderSet& set : sets) {
    out.targets.emplace_back(set.holders.size(), 0.0);
    total_bytes += set.bytes;
  }
  if (total_bytes <= 0.0) {
    return out;
  }
  const double t = static_cast<double>(problem.t);
  const double unit = t * total_bytes /
                      std::accumulate(problem.csp_bandwidth.begin(),
                                      problem.csp_bandwidth.end(), 0.0);

  // Variable 0 is y / unit; set s's fractions start at first_var[s].
  size_t num_vars = 1;
  std::vector<size_t> first_var(sets.size());
  for (size_t s = 0; s < sets.size(); ++s) {
    first_var[s] = num_vars;
    num_vars += sets[s].holders.size();
  }
  LpProblem lp;
  lp.num_vars = num_vars;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[0] = 1.0;
  for (size_t c = 0; c < problem.csp_bandwidth.size(); ++c) {
    std::vector<double> coeffs(num_vars, 0.0);
    coeffs[0] = -1.0;
    bool any = false;
    for (size_t s = 0; s < sets.size(); ++s) {
      const auto& holders = sets[s].holders;
      for (size_t k = 0; k < holders.size(); ++k) {
        if (holders[k] == static_cast<int>(c)) {
          coeffs[first_var[s] + k] =
              sets[s].bytes / (problem.csp_bandwidth[c] * unit);
          any = true;
        }
      }
    }
    if (any) {
      lp.AddLessEqual(std::move(coeffs), 0.0);
    }
  }
  if (problem.client_bandwidth > 0.0) {
    std::vector<double> coeffs(num_vars, 0.0);
    coeffs[0] = 1.0;
    lp.AddGreaterEqual(std::move(coeffs),
                       t * total_bytes / (problem.client_bandwidth * unit));
  }
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<double> coeffs(num_vars, 0.0);
    for (size_t k = 0; k < sets[s].holders.size(); ++k) {
      coeffs[first_var[s] + k] = 1.0;
      lp.AddUpperBound(first_var[s] + k, 1.0);
    }
    lp.AddEqual(std::move(coeffs), t);
  }
  CYRUS_ASSIGN_OR_RETURN(LpSolution solution, SolveLp(lp));
  for (size_t s = 0; s < sets.size(); ++s) {
    for (size_t k = 0; k < out.targets[s].size(); ++k) {
      out.targets[s][k] = sets[s].bytes * solution.x[first_var[s] + k];
    }
  }
  out.seconds = solution.x[0] * unit;
  return out;
}

// Start (a): deal each set's chunks, largest first, onto the t holders with
// the most of the set's relaxed load still unclaimed.
std::vector<std::vector<int>> RoundRelaxation(const DownloadProblem& problem,
                                              const std::vector<HolderSet>& sets,
                                              std::vector<std::vector<double>> targets) {
  std::vector<std::vector<int>> selected(problem.chunks.size());
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<double>& unclaimed = targets[s];
    std::vector<size_t> rank(unclaimed.size());
    std::iota(rank.begin(), rank.end(), 0);
    for (size_t r : sets[s].chunks) {
      std::partial_sort(rank.begin(), rank.begin() + problem.t, rank.end(),
                        [&](size_t a, size_t b) {
                          return unclaimed[a] != unclaimed[b] ? unclaimed[a] > unclaimed[b]
                                                              : a < b;
                        });
      for (uint32_t k = 0; k < problem.t; ++k) {
        selected[r].push_back(sets[s].holders[rank[k]]);
        unclaimed[rank[k]] -= problem.chunks[r].share_bytes;
      }
    }
  }
  return selected;
}

// Start (b): picks the t feasible CSPs that minimize the resulting per-CSP
// bottleneck (load + share)/bandwidth, charging the share to each pick.
// Chunks are visited in `order` (largest share first).
std::vector<std::vector<int>> GreedyBalancedAssign(const DownloadProblem& problem,
                                                   const std::vector<size_t>& order) {
  std::vector<double> loads(problem.csp_bandwidth.size(), 0.0);
  std::vector<std::vector<int>> selected(problem.chunks.size());
  for (size_t r : order) {
    const double share = problem.chunks[r].share_bytes;
    std::vector<int> pool = problem.chunks[r].stored_at;
    for (uint32_t k = 0; k < problem.t; ++k) {
      auto best = std::min_element(
          pool.begin() + k, pool.end(), [&](int a, int b) {
            return (loads[a] + share) / problem.csp_bandwidth[a] <
                   (loads[b] + share) / problem.csp_bandwidth[b];
          });
      std::swap(pool[k], *best);
      selected[r].push_back(pool[k]);
      loads[pool[k]] += share;
    }
  }
  return selected;
}

// Bounded local search on an integral assignment. Every step shifts load
// from one CSP a to another CSP c, and is taken only when c's new time stays
// below a's old time: for a step that touches two CSPs, that is what it
// takes to lower the per-CSP time vector, sorted descending,
// lexicographically. Single-share moves come first and always run until
// none applies; then one pairwise swap (chunk p moves a share a->c, chunk q
// one c->a, b_p > b_q) shifts the difference, unless the completion time
// has already reached `stop_at`. Stops when no step applies, at `stop_at`,
// or after kMaxLocalSearchPasses passes.
class LocalSearch {
 public:
  LocalSearch(const DownloadProblem& problem, std::vector<std::vector<int>>& selected)
      : problem_(problem), selected_(selected), loads_(problem.csp_bandwidth.size(), 0.0) {
    for (size_t r = 0; r < selected_.size(); ++r) {
      for (int c : selected_[r]) {
        loads_[c] += Share(r);
      }
    }
  }

  void Run(const std::vector<size_t>& order, double stop_at) {
    for (size_t pass = 0; pass < kMaxLocalSearchPasses; ++pass) {
      if (MoveSingleShares(order)) {
        continue;
      }
      if (CompletionTime(loads_, problem_) <= stop_at || !SwapOnce()) {
        return;
      }
    }
  }

 private:
  double Time(int c, double load) const { return load / problem_.csp_bandwidth[c]; }
  double Share(size_t r) const { return problem_.chunks[r].share_bytes; }

  // Whether shifting `bytes` from a to c lowers the sorted time vector.
  bool Improves(int a, int c, double bytes) const {
    return bytes > 0.0 &&
           Time(c, loads_[c] + bytes) < Time(a, loads_[a]) * (1.0 - kMinImprovement);
  }

  bool Selects(size_t r, int c) const {
    return std::find(selected_[r].begin(), selected_[r].end(), c) != selected_[r].end();
  }
  bool Holds(size_t r, int c) const {
    const std::vector<int>& stored = problem_.chunks[r].stored_at;
    return std::find(stored.begin(), stored.end(), c) != stored.end();
  }

  // One sweep of single-share moves, each to the holder that ends soonest.
  bool MoveSingleShares(const std::vector<size_t>& order) {
    bool moved = false;
    for (size_t r : order) {
      const double share = Share(r);
      for (int& a : selected_[r]) {
        int best = -1;
        for (int c : problem_.chunks[r].stored_at) {
          if (!Selects(r, c) && Improves(a, c, share) &&
              (best < 0 || Time(c, loads_[c] + share) < Time(best, loads_[best] + share))) {
            best = c;
          }
        }
        if (best >= 0) {
          loads_[a] -= share;
          loads_[best] += share;
          a = best;
          moved = true;
        }
      }
    }
    return moved;
  }

  // Applies the swap that best evens out the most loaded CSP that has one
  // with some less loaded CSP.
  bool SwapOnce() {
    const size_t C = loads_.size();
    std::vector<int> by_time(C);
    std::iota(by_time.begin(), by_time.end(), 0);
    std::stable_sort(by_time.begin(), by_time.end(),
                     [&](int a, int b) { return Time(a, loads_[a]) > Time(b, loads_[b]); });
    for (size_t i = 0; i < C; ++i) {
      const int a = by_time[i];
      double best_time = Time(a, loads_[a]);
      size_t best_give = 0;
      size_t best_take = 0;
      int best_c = -1;
      for (size_t j = i + 1; j < C; ++j) {
        const int c = by_time[j];
        // give: chunks that could move a share a->c; take: c->a.
        std::vector<size_t> give;
        std::vector<size_t> take;
        for (size_t r = 0; r < selected_.size(); ++r) {
          const bool on_a = Selects(r, a);
          if (on_a != Selects(r, c) && Holds(r, a) && Holds(r, c)) {
            (on_a ? give : take).push_back(r);
          }
        }
        if (give.empty() || take.empty()) {
          continue;
        }
        std::sort(take.begin(), take.end(),
                  [&](size_t x, size_t y) { return Share(x) < Share(y); });
        // The shift that equalizes a's and c's times; the best partner of
        // p has the share closest to b_p - ideal, on either side.
        const double ideal = (Time(a, loads_[a]) - Time(c, loads_[c])) /
                             (1.0 / problem_.csp_bandwidth[a] + 1.0 / problem_.csp_bandwidth[c]);
        for (size_t p : give) {
          const size_t above =
              std::lower_bound(take.begin(), take.end(), Share(p) - ideal,
                               [&](size_t q, double v) { return Share(q) < v; }) -
              take.begin();
          for (size_t k = above > 0 ? above - 1 : 0; k <= above && k < take.size(); ++k) {
            const double shift = Share(p) - Share(take[k]);
            if (!Improves(a, c, shift)) {
              continue;
            }
            const double after =
                std::max(Time(a, loads_[a] - shift), Time(c, loads_[c] + shift));
            if (after < best_time) {
              best_time = after;
              best_give = p;
              best_take = take[k];
              best_c = c;
            }
          }
        }
      }
      if (best_c >= 0) {
        const double shift = Share(best_give) - Share(best_take);
        *std::find(selected_[best_give].begin(), selected_[best_give].end(), a) = best_c;
        *std::find(selected_[best_take].begin(), selected_[best_take].end(), best_c) = a;
        loads_[a] -= shift;
        loads_[best_c] += shift;
        return true;
      }
    }
    return false;
  }

  const DownloadProblem& problem_;
  std::vector<std::vector<int>>& selected_;
  std::vector<double> loads_;
};

}  // namespace

Result<DownloadAssignment> OptimalDownloadSelector::Select(
    const DownloadProblem& problem) {
  CYRUS_RETURN_IF_ERROR(Validate(problem));
  if (problem.chunks.empty()) {
    return FinalizeAssignment(problem, {});
  }

  // Largest shares first: they constrain the bottleneck most, so both
  // starts place them while the loads are still flexible.
  std::vector<size_t> order(problem.chunks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return problem.chunks[a].share_bytes > problem.chunks[b].share_bytes;
  });

  const std::vector<HolderSet> sets = GroupByHolders(problem, order);
  CYRUS_ASSIGN_OR_RETURN(Relaxation relaxation, SolveRelaxation(problem, sets));

  // Close enough: one smallest share on the fastest CSP above the bound.
  const double smallest_share = problem.chunks[order.back()].share_bytes;
  const double stop_at =
      relaxation.seconds + smallest_share / *std::max_element(problem.csp_bandwidth.begin(),
                                                              problem.csp_bandwidth.end());
  std::vector<std::vector<int>> starts[] = {
      RoundRelaxation(problem, sets, std::move(relaxation.targets)),
      GreedyBalancedAssign(problem, order)};
  DownloadAssignment best;
  best.predicted_seconds = std::numeric_limits<double>::infinity();
  for (std::vector<std::vector<int>>& selected : starts) {
    LocalSearch(problem, selected).Run(order, stop_at);
    DownloadAssignment candidate = FinalizeAssignment(problem, std::move(selected));
    if (candidate.predicted_seconds < best.predicted_seconds) {
      best = std::move(candidate);
    }
  }
  // y* is exact up to simplex round-off; never report it above a value the
  // assignment actually attains.
  best.lower_bound_seconds = std::min(relaxation.seconds, best.predicted_seconds);
  return best;
}

// ---------------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------------

Result<DownloadAssignment> RandomDownloadSelector::Select(const DownloadProblem& problem) {
  CYRUS_RETURN_IF_ERROR(Validate(problem));
  std::vector<std::vector<int>> selected(problem.chunks.size());
  for (size_t r = 0; r < problem.chunks.size(); ++r) {
    std::vector<int> pool = problem.chunks[r].stored_at;
    // Partial Fisher-Yates: draw t distinct CSPs uniformly.
    for (uint32_t k = 0; k < problem.t; ++k) {
      const size_t j = k + rng_.NextBelow(pool.size() - k);
      std::swap(pool[k], pool[j]);
      selected[r].push_back(pool[k]);
    }
  }
  return FinalizeAssignment(problem, std::move(selected));
}

Result<DownloadAssignment> RoundRobinDownloadSelector::Select(
    const DownloadProblem& problem) {
  CYRUS_RETURN_IF_ERROR(Validate(problem));
  const size_t C = problem.csp_bandwidth.size();
  std::vector<std::vector<int>> selected(problem.chunks.size());
  for (size_t r = 0; r < problem.chunks.size(); ++r) {
    const auto& stored = problem.chunks[r].stored_at;
    // Walk the global CSP ring from the cursor, taking feasible CSPs.
    size_t probe = cursor_;
    while (selected[r].size() < problem.t) {
      const int candidate = static_cast<int>(probe % C);
      if (std::find(stored.begin(), stored.end(), candidate) != stored.end() &&
          std::find(selected[r].begin(), selected[r].end(), candidate) ==
              selected[r].end()) {
        selected[r].push_back(candidate);
      }
      ++probe;
    }
    cursor_ = (cursor_ + 1) % C;
  }
  return FinalizeAssignment(problem, std::move(selected));
}

Result<DownloadAssignment> ExactMilpDownloadSelector::Select(
    const DownloadProblem& problem) {
  CYRUS_RETURN_IF_ERROR(Validate(problem));
  const size_t R = problem.chunks.size();
  const size_t C = problem.csp_bandwidth.size();
  if (R == 0) {
    return FinalizeAssignment(problem, {});
  }

  // Same LP as the optimizer's relaxation, but every d variable is binary.
  size_t num_vars = 1;  // y first
  std::vector<std::vector<size_t>> var_index(R);
  for (size_t r = 0; r < R; ++r) {
    var_index[r].resize(problem.chunks[r].stored_at.size());
    for (size_t k = 0; k < var_index[r].size(); ++k) {
      var_index[r][k] = num_vars++;
    }
  }
  LpProblem lp;
  lp.num_vars = num_vars;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[0] = 1.0;
  for (size_t c = 0; c < C; ++c) {
    std::vector<double> coeffs(num_vars, 0.0);
    coeffs[0] = -problem.csp_bandwidth[c];
    bool any = false;
    for (size_t r = 0; r < R; ++r) {
      const auto& stored = problem.chunks[r].stored_at;
      for (size_t k = 0; k < stored.size(); ++k) {
        if (stored[k] == static_cast<int>(c)) {
          coeffs[var_index[r][k]] = problem.chunks[r].share_bytes;
          any = true;
        }
      }
    }
    if (any) {
      lp.AddLessEqual(std::move(coeffs), 0.0);
    }
  }
  if (problem.client_bandwidth > 0.0) {
    std::vector<double> coeffs(num_vars, 0.0);
    coeffs[0] = -problem.client_bandwidth;
    for (size_t r = 0; r < R; ++r) {
      for (size_t k = 0; k < var_index[r].size(); ++k) {
        coeffs[var_index[r][k]] = problem.chunks[r].share_bytes;
      }
    }
    lp.AddLessEqual(std::move(coeffs), 0.0);
  }
  std::vector<size_t> binary_vars;
  for (size_t r = 0; r < R; ++r) {
    std::vector<double> coeffs(num_vars, 0.0);
    for (size_t k = 0; k < var_index[r].size(); ++k) {
      coeffs[var_index[r][k]] = 1.0;
      binary_vars.push_back(var_index[r][k]);
    }
    lp.AddEqual(std::move(coeffs), static_cast<double>(problem.t));
  }

  MilpOptions options;
  options.max_nodes = 2000000;
  CYRUS_ASSIGN_OR_RETURN(LpSolution solution, SolveBinaryMilp(lp, binary_vars, options));

  std::vector<std::vector<int>> selected(R);
  for (size_t r = 0; r < R; ++r) {
    for (size_t k = 0; k < var_index[r].size(); ++k) {
      if (solution.x[var_index[r][k]] > 0.5) {
        selected[r].push_back(problem.chunks[r].stored_at[k]);
      }
    }
  }
  return FinalizeAssignment(problem, std::move(selected));
}

Result<DownloadAssignment> GreedyFastestDownloadSelector::Select(
    const DownloadProblem& problem) {
  CYRUS_RETURN_IF_ERROR(Validate(problem));
  std::vector<std::vector<int>> selected(problem.chunks.size());
  for (size_t r = 0; r < problem.chunks.size(); ++r) {
    std::vector<int> pool = problem.chunks[r].stored_at;
    std::stable_sort(pool.begin(), pool.end(), [&](int a, int b) {
      return problem.csp_bandwidth[a] > problem.csp_bandwidth[b];
    });
    selected[r].assign(pool.begin(), pool.begin() + problem.t);
  }
  return FinalizeAssignment(problem, std::move(selected));
}

}  // namespace cyrus
