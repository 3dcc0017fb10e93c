// Per-CSP circuit breaker (closed / open / half-open).
//
// The transfer engine used to indict a CSP with an ad-hoc MarkCspFailed
// read-modify-write the first time any call failed, and nothing but a
// manual MarkCspRecovered (or a scrub reprobe) ever let it back in. The
// breaker replaces that with the standard three-state machine:
//
//   closed    -> every call passes through; `failure_threshold` consecutive
//                eligible failures (kUnavailable / kDeadlineExceeded /
//                kPermissionDenied) trip the breaker.
//   open      -> calls fast-fail with kUnavailable without touching the
//                network; after a seeded cooldown (virtual seconds, with
//                optional jitter so a fleet of clients does not probe in
//                lockstep) the breaker admits probes.
//   half-open -> one probe call at a time passes through; `half_open_
//                successes` consecutive successes close the breaker, any
//                failure re-opens it with a fresh cooldown.
//
// The breaker is a CloudConnector decorator, so placement (hash ring),
// the download selector, and the repair engine all see its verdicts
// through the same state-change callback the client uses to keep the
// registry in sync. Thread-safe; the transition callback is invoked
// *outside* the breaker lock (it typically takes the client's topology
// mutex).
#ifndef SRC_CLOUD_CIRCUIT_BREAKER_H_
#define SRC_CLOUD_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/cloud/connector.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace cyrus {

struct CircuitBreakerOptions {
  // Master switch for the client-level wiring: when false, CyrusClient
  // registers connectors without the breaker decorator and keeps the
  // legacy MarkCspFailed indictment path. Off by default because a
  // threshold-1 breaker trips on the first transient error the retry
  // layer would otherwise ride out, changing placement mid-burst.
  bool enabled = false;
  // Consecutive eligible failures that trip a closed breaker. The default
  // of 1 reproduces the legacy immediate-indictment behaviour; chaos
  // configurations raise it to ride out transient blips.
  uint32_t failure_threshold = 1;
  // Virtual seconds an open breaker waits before admitting half-open
  // probes.
  double open_cooldown_seconds = 30.0;
  // Fractional jitter applied to each cooldown, drawn from the seeded rng
  // in [1 - jitter, 1 + jitter]. 0 = deterministic cooldowns.
  double cooldown_jitter = 0.0;
  // Consecutive half-open successes needed to close the breaker.
  uint32_t half_open_successes = 1;
  uint64_t seed = 1;
  // nullptr -> obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics = nullptr;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  // `csp_name` labels the breaker's metrics; `now` supplies virtual time
  // (seconds) and must be callable from any thread.
  CircuitBreaker(std::string csp_name, CircuitBreakerOptions options,
                 std::function<double()> now);

  // Whether a call may proceed right now. In half-open state this hands
  // out at most one in-flight probe slot; callers that receive `true`
  // MUST follow up with RecordSuccess or RecordFailure.
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();

  State state() const;
  const std::string& csp_name() const { return csp_name_; }

  // Invoked after every state change, outside the breaker lock, as
  // (from, to). At most one callback runs at a time per breaker, and
  // callbacks are delivered in transition order even when transitions
  // race on different threads.
  void set_on_transition(std::function<void(State, State)> cb);

  // Forces the breaker open immediately (with a fresh cooldown), firing
  // the transition callback so placement evicts the CSP. The integrity
  // path's quarantine primitive: a CSP serving corrupted bytes answers
  // promptly, so its transfer-level "successes" keep resetting the
  // consecutive-failure count and the trip must come from cumulative
  // evidence instead. No-op when already open.
  void ForceOpen();

  // Forces the breaker closed WITHOUT firing the transition callback. Used
  // by MarkCspRecovered, which already holds the topology mutex the
  // callback would re-take: the registry state is being fixed by the
  // caller, so only the breaker's bookkeeping needs resetting.
  void ForceClose();

  static std::string_view StateName(State state);

 private:
  // Requires lock held. Applies the state change and enqueues the
  // (from, to) pair for DrainTransitions; never invokes the callback
  // itself.
  void TransitionLocked(State to);
  // Delivers queued transitions to on_transition_ in enqueue order.
  // Must be called WITHOUT mutex_ held (callbacks typically take the
  // client's topology mutex).
  void DrainTransitions();
  double CooldownLocked();

  const std::string csp_name_;
  CircuitBreakerOptions options_;
  std::function<double()> now_;

  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint32_t half_open_successes_seen_ = 0;
  bool half_open_probe_in_flight_ = false;
  double open_until_ = 0.0;
  Rng rng_;
  std::function<void(State, State)> on_transition_;
  // Transitions recorded under mutex_ but not yet delivered to the
  // callback; drained FIFO so delivery order matches transition order.
  std::deque<std::pair<State, State>> pending_transitions_;
  // Serializes callback invocations without holding mutex_ across them.
  std::mutex callback_mutex_;

  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* fast_failures_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

// CloudConnector decorator enforcing a CircuitBreaker on every call.
// Failures that count against the breaker: kUnavailable,
// kDeadlineExceeded, kPermissionDenied. Application-level outcomes such
// as kNotFound count as successes (the provider answered).
class CircuitBreakerConnector : public CloudConnector {
 public:
  CircuitBreakerConnector(std::shared_ptr<CloudConnector> inner,
                          std::shared_ptr<CircuitBreaker> breaker);

  std::string_view id() const override { return inner_->id(); }
  Status Authenticate(const Credentials& credentials) override;
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override;
  Status Upload(std::string_view name, ByteSpan data) override;
  Result<Bytes> Download(std::string_view name) override;
  Status Delete(std::string_view name) override;

  const std::shared_ptr<CircuitBreaker>& breaker() const { return breaker_; }
  const std::shared_ptr<CloudConnector>& inner() const { return inner_; }

 private:
  Status FastFail() const;
  void Record(const Status& status);

  std::shared_ptr<CloudConnector> inner_;
  std::shared_ptr<CircuitBreaker> breaker_;
};

// Whether a status indicts the provider (as opposed to the request).
bool IsCspHealthFailure(const Status& status);

}  // namespace cyrus

#endif  // SRC_CLOUD_CIRCUIT_BREAKER_H_
