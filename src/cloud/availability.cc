#include "src/cloud/availability.h"

#include <algorithm>
#include <cassert>

namespace cyrus {

AvailabilityMonitor::AvailabilityMonitor(double failure_threshold_seconds)
    : threshold_(failure_threshold_seconds) {}

void AvailabilityMonitor::RecordProbe(int csp, double time, bool reachable) {
  std::lock_guard<std::mutex> lock(mutex_);
  History& h = history_[csp];
  if (!h.any_probe) {
    h.any_probe = true;
    h.first_probe = time;
    h.last_probe = time;
    h.unreachable_since = reachable ? -1.0 : time;
    return;
  }
  assert(time >= h.last_probe);

  if (!reachable) {
    if (h.unreachable_since < 0.0) {
      h.unreachable_since = time;  // outage begins
    }
  } else if (h.unreachable_since >= 0.0) {
    // Outage over; count it as failure time only if it crossed the
    // threshold (shorter blips are treated as transient, paper §4.2).
    const double outage = time - h.unreachable_since;
    if (outage >= threshold_) {
      h.failed_seconds += outage;
    }
    h.unreachable_since = -1.0;
  }
  h.last_probe = time;
}

double AvailabilityMonitor::EstimateFailureProbability(int csp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return EstimateLocked(csp);
}

double AvailabilityMonitor::EstimateLocked(int csp) const {
  auto it = history_.find(csp);
  if (it == history_.end() || !it->second.any_probe) {
    return 0.0;
  }
  const History& h = it->second;
  double failed = h.failed_seconds;
  // An outage still in progress counts once it crosses the threshold.
  if (h.unreachable_since >= 0.0 && h.last_probe - h.unreachable_since >= threshold_) {
    failed += h.last_probe - h.unreachable_since;
  }
  const double span = h.last_probe - h.first_probe;
  if (span <= 0.0) {
    return 0.0;  // no observation window yet; the threshold rule applies
  }
  return std::min(1.0, failed / span);
}

double AvailabilityMonitor::MaxFailureProbability() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double p = 0.0;
  for (const auto& [csp, h] : history_) {
    p = std::max(p, EstimateLocked(csp));
  }
  return p;
}

bool AvailabilityMonitor::IsFailed(int csp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = history_.find(csp);
  if (it == history_.end()) {
    return false;
  }
  const History& h = it->second;
  return h.unreachable_since >= 0.0 && h.last_probe - h.unreachable_since >= threshold_;
}

void AvailabilityMonitor::RecordExcess(int csp, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  History& h = history_[csp];
  h.excess[h.excess_samples++ % kExcessWindow] = seconds > 0.0 ? seconds : 0.0;
}

double AvailabilityMonitor::MedianExcessSeconds(int csp) const {
  std::array<double, kExcessWindow> kept;
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = history_.find(csp);
    if (it == history_.end() || it->second.excess_samples == 0) {
      return 0.0;
    }
    kept = it->second.excess;
    count = std::min(it->second.excess_samples, kExcessWindow);
  }
  const auto median = kept.begin() + static_cast<ptrdiff_t>((count - 1) / 2);
  std::nth_element(kept.begin(), median, kept.begin() + static_cast<ptrdiff_t>(count));
  return *median;
}

void AvailabilityMonitor::RecordIntegrityFailure(int csp) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++history_[csp].integrity_failures;
}

uint64_t AvailabilityMonitor::IntegrityFailureCount(int csp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = history_.find(csp);
  return it == history_.end() ? 0 : it->second.integrity_failures;
}

std::map<int, uint64_t> AvailabilityMonitor::IntegrityFailureCounts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int, uint64_t> counts;
  for (const auto& [csp, h] : history_) {
    if (h.integrity_failures > 0) {
      counts[csp] = h.integrity_failures;
    }
  }
  return counts;
}

bool IsCspHealthFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kPermissionDenied:
      return true;
    default:
      return false;
  }
}

const std::vector<double>& PaperAnnualDowntimeHours() {
  // CloudHarmony-style annual downtime for the four commercial providers
  // (paper: "downtime varies from 1.37 to 18.53 hours per year"). The two
  // interior values are interpolated; DESIGN.md records the substitution.
  static const std::vector<double> kHours = {1.37, 5.0, 10.0, 18.53};
  return kHours;
}

}  // namespace cyrus
