#include "src/cloud/circuit_breaker.h"

#include <algorithm>
#include <utility>

namespace cyrus {

CircuitBreaker::CircuitBreaker(std::string csp_name, CircuitBreakerOptions options,
                               std::function<double()> now)
    : csp_name_(std::move(csp_name)),
      options_(options),
      now_(std::move(now)),
      rng_(options.seed) {
  options_.failure_threshold = std::max<uint32_t>(options_.failure_threshold, 1);
  options_.half_open_successes = std::max<uint32_t>(options_.half_open_successes, 1);
  options_.cooldown_jitter = std::clamp(options_.cooldown_jitter, 0.0, 1.0);
  metrics_ = options_.metrics ? options_.metrics : &obs::MetricsRegistry::Default();
  state_gauge_ = metrics_->GetGauge(
      "cyrus_breaker_state", {{"csp", csp_name_}},
      "Circuit breaker state per CSP: 0 closed, 1 half-open, 2 open");
  fast_failures_ = metrics_->GetCounter(
      "cyrus_breaker_fast_failures_total", {{"csp", csp_name_}},
      "Calls rejected locally because the CSP's breaker was open");
  state_gauge_->Set(0.0);
}

std::string_view CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kHalfOpen:
      return "half_open";
    case State::kOpen:
      return "open";
  }
  return "unknown";
}

void CircuitBreaker::set_on_transition(std::function<void(State, State)> cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_transition_ = std::move(cb);
}

double CircuitBreaker::CooldownLocked() {
  double cooldown = options_.open_cooldown_seconds;
  if (options_.cooldown_jitter > 0.0) {
    cooldown *= rng_.NextDouble(1.0 - options_.cooldown_jitter,
                                1.0 + options_.cooldown_jitter);
  }
  return cooldown;
}

void CircuitBreaker::TransitionLocked(State to) {
  if (state_ == to) {
    return;
  }
  const State from = state_;
  state_ = to;
  if (to == State::kOpen) {
    open_until_ = now_() + CooldownLocked();
  }
  if (to != State::kHalfOpen) {
    half_open_probe_in_flight_ = false;
  }
  half_open_successes_seen_ = 0;
  consecutive_failures_ = 0;
  state_gauge_->Set(static_cast<double>(static_cast<int>(to)));
  metrics_
      ->GetCounter("cyrus_breaker_transitions_total",
                   {{"csp", csp_name_}, {"to", std::string(StateName(to))}},
                   "Circuit breaker state transitions per CSP and target state")
      ->Increment();
  // Record only; the callback runs outside mutex_ (it may take the
  // client's topology mutex). Queueing under mutex_ pins the delivery
  // order to the transition order even when transitions race.
  pending_transitions_.emplace_back(from, to);
}

void CircuitBreaker::DrainTransitions() {
  // Holding callback_mutex_ across the whole drain keeps delivery in
  // enqueue order when two threads transition back-to-back: whichever
  // drains first delivers both, the other finds an empty queue.
  std::lock_guard<std::mutex> cb_lock(callback_mutex_);
  while (true) {
    std::function<void(State, State)> cb;
    std::pair<State, State> transition;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_transitions_.empty()) {
        return;
      }
      transition = pending_transitions_.front();
      pending_transitions_.pop_front();
      cb = on_transition_;
    }
    if (cb) {
      cb(transition.first, transition.second);
    }
  }
}

bool CircuitBreaker::AllowRequest() {
  bool allow = true;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ == State::kOpen && now_() >= open_until_) {
      TransitionLocked(State::kHalfOpen);
    }
    switch (state_) {
      case State::kClosed:
        allow = true;
        break;
      case State::kOpen:
        fast_failures_->Increment();
        allow = false;
        break;
      case State::kHalfOpen:
        if (half_open_probe_in_flight_) {
          fast_failures_->Increment();
          allow = false;
        } else {
          half_open_probe_in_flight_ = true;
          allow = true;
        }
        break;
    }
  }
  DrainTransitions();
  return allow;
}

void CircuitBreaker::RecordSuccess() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    switch (state_) {
      case State::kClosed:
        consecutive_failures_ = 0;
        break;
      case State::kHalfOpen: {
        half_open_probe_in_flight_ = false;
        if (++half_open_successes_seen_ >= options_.half_open_successes) {
          TransitionLocked(State::kClosed);
        }
        break;
      }
      case State::kOpen:
        // A straggler call issued before the trip finished late; ignore.
        break;
    }
  }
  DrainTransitions();
}

void CircuitBreaker::RecordFailure() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    switch (state_) {
      case State::kClosed:
        if (++consecutive_failures_ >= options_.failure_threshold) {
          TransitionLocked(State::kOpen);
        }
        break;
      case State::kHalfOpen:
        half_open_probe_in_flight_ = false;
        TransitionLocked(State::kOpen);
        break;
      case State::kOpen:
        break;
    }
  }
  DrainTransitions();
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void CircuitBreaker::ForceOpen() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ != State::kOpen) {
      TransitionLocked(State::kOpen);
    }
  }
  DrainTransitions();
}

void CircuitBreaker::ForceClose() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kClosed) {
    return;
  }
  const State to = State::kClosed;
  state_ = to;
  half_open_probe_in_flight_ = false;
  half_open_successes_seen_ = 0;
  consecutive_failures_ = 0;
  // Queued-but-undelivered transitions describe a state this reset just
  // overrode; delivering them now would re-indict the CSP the caller is
  // recovering.
  pending_transitions_.clear();
  state_gauge_->Set(0.0);
  metrics_
      ->GetCounter("cyrus_breaker_transitions_total",
                   {{"csp", csp_name_}, {"to", std::string(StateName(to))}},
                   "Circuit breaker state transitions per CSP and target state")
      ->Increment();
  // Deliberately no on_transition_: the caller is the recovery path itself.
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

CircuitBreakerConnector::CircuitBreakerConnector(
    std::shared_ptr<CloudConnector> inner, std::shared_ptr<CircuitBreaker> breaker)
    : inner_(std::move(inner)), breaker_(std::move(breaker)) {}

Status CircuitBreakerConnector::FastFail() const {
  return UnavailableError("circuit breaker open for csp " +
                          std::string(inner_->id()));
}

void CircuitBreakerConnector::Record(const Status& status) {
  if (IsCspHealthFailure(status)) {
    breaker_->RecordFailure();
  } else {
    breaker_->RecordSuccess();
  }
}

Status CircuitBreakerConnector::Authenticate(const Credentials& credentials) {
  if (!breaker_->AllowRequest()) {
    return FastFail();
  }
  Status status = inner_->Authenticate(credentials);
  Record(status);
  return status;
}

Result<std::vector<ObjectInfo>> CircuitBreakerConnector::List(std::string_view prefix) {
  if (!breaker_->AllowRequest()) {
    return FastFail();
  }
  Result<std::vector<ObjectInfo>> result = inner_->List(prefix);
  Record(result.status());
  return result;
}

Status CircuitBreakerConnector::Upload(std::string_view name, ByteSpan data) {
  if (!breaker_->AllowRequest()) {
    return FastFail();
  }
  Status status = inner_->Upload(name, data);
  Record(status);
  return status;
}

Result<Bytes> CircuitBreakerConnector::Download(std::string_view name) {
  if (!breaker_->AllowRequest()) {
    return FastFail();
  }
  Result<Bytes> result = inner_->Download(name);
  Record(result.status());
  return result;
}

Status CircuitBreakerConnector::Delete(std::string_view name) {
  if (!breaker_->AllowRequest()) {
    return FastFail();
  }
  Status status = inner_->Delete(name);
  Record(status);
  return status;
}

}  // namespace cyrus
