// CSP availability and delay tracking (paper §4.2, §4.3).
//
// AvailabilityMonitor estimates each CSP's failure probability p from probe
// history: a CSP counts as *failed* once it has been unreachable for at
// least `failure_threshold` seconds (the paper suggests one day); p is the
// observed failed fraction of time. Equation (1) then uses the largest p
// across CSPs as a conservative bound.
//
// It also learns each CSP's per-request delay: the client books every
// successful transfer's excess over what the CSP's profile predicts, and
// the download selector (Algorithm 1) prices the CSP with the median of
// the last kExcessWindow samples on top of its profile rate.
//
// AvailabilityMonitor is thread-safe: the pipelined transfer engine records
// probes and excess samples from pool threads while Eq. (1) sizing and
// download selection read estimates.
#ifndef SRC_CLOUD_AVAILABILITY_H_
#define SRC_CLOUD_AVAILABILITY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/util/result.h"

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

  // Samples of per-request excess kept per CSP.
  static constexpr size_t kExcessWindow = 8;

  // Records how many seconds one successful transfer with `csp` took
  // beyond its profile's prediction; a negative excess counts as 0. Only
  // the last kExcessWindow samples are kept.
  void RecordExcess(int csp, double seconds);

  // Median of the kept excess samples (the lower one of an even count), so
  // a minority of scheduling outliers moves nothing. 0 before any sample.
  double MedianExcessSeconds(int csp) const;

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
    std::array<double, kExcessWindow> excess{};  // ring buffer
    size_t excess_samples = 0;                    // ever recorded
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

}  // namespace cyrus

#endif  // SRC_CLOUD_AVAILABILITY_H_
