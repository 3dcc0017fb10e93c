// CSP availability tracking and outage modelling (paper §4.2, §7.2).
//
// AvailabilityMonitor estimates each CSP's failure probability p from probe
// history: a CSP counts as *failed* once it has been unreachable for at
// least `failure_threshold` seconds (the paper suggests one day); p is the
// observed failed fraction of time. Equation (1) then uses the largest p
// across CSPs as a conservative bound.
//
// OutageSchedule generates the alternating up/down process used by the
// Figure 13 reliability simulation, parameterized by annual downtime (the
// paper cites 1.37-18.53 hours/year for four commercial CSPs).
// AvailabilityMonitor is thread-safe: the pipelined transfer engine records
// probes from pool threads while Eq. (1) sizing reads estimates.
#ifndef SRC_CLOUD_AVAILABILITY_H_
#define SRC_CLOUD_AVAILABILITY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/util/result.h"
#include "src/util/rng.h"

namespace cyrus {

class AvailabilityMonitor {
 public:
  // failure_threshold: seconds of continuous unreachability after which the
  // CSP is considered down (user-configurable; default one day).
  explicit AvailabilityMonitor(double failure_threshold_seconds = 86400.0);

  // Records a probe of CSP `csp` at virtual time `time` (monotone per CSP).
  void RecordProbe(int csp, double time, bool reachable);

  // Fraction of observed time the CSP spent in failed state, in [0, 1].
  // Zero when no failure interval has been observed yet.
  double EstimateFailureProbability(int csp) const;

  // max over CSPs (conservative p for the reliability solver); zero if no
  // probes at all.
  double MaxFailureProbability() const;

  // Whether the CSP is currently in the failed state.
  bool IsFailed(int csp) const;

  // Records an observed per-share transfer latency for `csp`, folded into
  // an exponentially-weighted moving average. Feeds the hedged-Get
  // deadline: "how long does this CSP usually take?".
  void RecordLatency(int csp, double latency_ms);

  // EWMA transfer latency for `csp`; `fallback_ms` when no samples yet.
  double LatencyEstimateMs(int csp, double fallback_ms) const;

  // Records a share downloaded from `csp` that failed its digest check.
  // Integrity failures are tracked separately from reachability: a lying
  // CSP answers promptly, so the probe history alone would call it healthy.
  void RecordIntegrityFailure(int csp);

  // Cumulative integrity failures attributed to `csp`.
  uint64_t IntegrityFailureCount(int csp) const;

  // Snapshot of every CSP with at least one integrity failure.
  std::map<int, uint64_t> IntegrityFailureCounts() const;

 private:
  struct History {
    double first_probe = 0.0;
    double last_probe = 0.0;
    double unreachable_since = -1.0;  // <0: currently reachable
    double failed_seconds = 0.0;
    bool any_probe = false;
    double latency_ewma_ms = 0.0;
    bool any_latency = false;
    uint64_t integrity_failures = 0;
  };

  // Requires mutex_ held.
  double EstimateLocked(int csp) const;

  mutable std::mutex mutex_;
  double threshold_;
  std::map<int, History> history_;
};

// Whether a status indicts the provider (as opposed to the request):
// kUnavailable, kDeadlineExceeded and kPermissionDenied do; application
// outcomes such as kNotFound mean the provider answered.
bool IsCspHealthFailure(const Status& status);

// Hours-per-year downtime of the four commercial CSPs the paper's Figure 13
// simulation draws on (CloudHarmony monitoring, 1.37 to 18.53 h/yr).
const std::vector<double>& PaperAnnualDowntimeHours();

// Alternating renewal process: exponentially-distributed up and down
// periods with the given annual downtime budget.
class OutageSchedule {
 public:
  // downtime_hours_per_year determines the stationary down probability;
  // mean_outage_hours sets the mean length of a single outage.
  OutageSchedule(double downtime_hours_per_year, double mean_outage_hours, Rng rng);

  // Advances the process and reports whether the CSP is up at `time`
  // (times must be queried in nondecreasing order).
  bool IsUp(double time_seconds);

  // Stationary probability of being down (annual downtime / year).
  double StationaryDownProbability() const { return p_down_; }

 private:
  double p_down_;
  double mean_down_seconds_;
  double mean_up_seconds_;
  Rng rng_;
  double phase_end_ = 0.0;
  bool up_ = true;
};

}  // namespace cyrus

#endif  // SRC_CLOUD_AVAILABILITY_H_
