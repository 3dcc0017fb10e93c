#include "src/core/transfer.h"

#include <chrono>
#include <functional>
#include <utility>

namespace cyrus {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

constexpr TransferKind kKinds[] = {TransferKind::kPut, TransferKind::kGet,
                                   TransferKind::kPutMeta, TransferKind::kGetMeta};

}  // namespace

CspCalls::CspCalls(CspRegistry* registry, AvailabilityMonitor* monitor, RetryOptions retry,
                   obs::MetricsRegistry* metrics,
                   std::function<void(int csp)> on_health_failure)
    : registry_(registry),
      monitor_(monitor),
      retry_(retry),
      on_health_failure_(std::move(on_health_failure)) {
  if (metrics == nullptr) {
    metrics = &obs::MetricsRegistry::Default();
  }
  constexpr std::string_view kRequestsHelp = "Journaled transfer requests by kind and result";
  for (TransferKind kind : kKinds) {
    const std::string name(TransferKindName(kind));
    KindCounters& c = counters_[static_cast<size_t>(kind)];
    c.ok = metrics->GetCounter("cyrus_transfer_requests_total",
                               {{"kind", name}, {"result", "ok"}}, kRequestsHelp);
    c.failed = metrics->GetCounter("cyrus_transfer_requests_total",
                                   {{"kind", name}, {"result", "error"}}, kRequestsHelp);
    c.bytes = metrics->GetCounter("cyrus_transfer_bytes_total", {{"kind", name}},
                                  "Bytes moved by successful transfer requests");
  }
}

template <typename Op>
auto CspCalls::Call(int csp, std::string_view key, Op op) {
  using R = decltype(op(std::declval<CloudConnector&>()));
  auto conn = registry_->connector(csp);
  if (!conn.ok()) {
    return R(conn.status());
  }
  RetryOptions options = retry_;
  options.seed ^= std::hash<std::string_view>{}(key);
  R result = RetryWithBackoff(options, [&] { return op(**conn); });
  if (!GetRetryStatus(result).ok() && IsCspHealthFailure(GetRetryStatus(result)) &&
      on_health_failure_) {
    on_health_failure_(csp);
  }
  return result;
}

void CspCalls::Record(TransferReport& report, TransferRecord record) {
  const KindCounters& c = counters_[static_cast<size_t>(record.kind)];
  if (!record.success) {
    c.failed->Increment();
  } else {
    c.ok->Increment();
    c.bytes->Increment(record.bytes);
    if (auto profile = registry_->profile(record.csp); profile.ok()) {
      const bool upload =
          record.kind == TransferKind::kPut || record.kind == TransferKind::kPutMeta;
      const double rate =
          upload ? profile->upload_bytes_per_sec : profile->download_bytes_per_sec;
      monitor_->RecordExcess(record.csp, record.seconds - profile->rtt_ms / 1e3 -
                                             static_cast<double>(record.bytes) / rate);
    }
  }
  report.records.push_back(std::move(record));
}

Status CspCalls::Upload(int csp, TransferKind kind, const std::string& object,
                        ByteSpan data, TransferReport& report) {
  return Call(csp, object, [&](CloudConnector& conn) {
    const auto start = std::chrono::steady_clock::now();
    Status upload = conn.Upload(object, data);
    Record(report, TransferRecord{kind, csp, object, data.size(), upload.ok(),
                                  SecondsSince(start)});
    return upload;
  });
}

Result<Bytes> CspCalls::Download(int csp, TransferKind kind, const std::string& object,
                                 TransferReport& report) {
  return Call(csp, object, [&](CloudConnector& conn) {
    const auto start = std::chrono::steady_clock::now();
    Result<Bytes> data = conn.Download(object);
    Record(report, TransferRecord{kind, csp, object, data.ok() ? data->size() : uint64_t{0},
                                  data.ok(), SecondsSince(start)});
    return data;
  });
}

Result<std::vector<ObjectInfo>> CspCalls::List(int csp, std::string_view prefix) {
  return Call(csp, prefix, [&](CloudConnector& conn) { return conn.List(prefix); });
}

Status CspCalls::Delete(int csp, const std::string& object) {
  return Call(csp, object, [&](CloudConnector& conn) { return conn.Delete(object); });
}

std::string_view TransferKindName(TransferKind kind) {
  switch (kind) {
    case TransferKind::kPut:
      return "PUT";
    case TransferKind::kGet:
      return "GET";
    case TransferKind::kPutMeta:
      return "PUT_META";
    case TransferKind::kGetMeta:
      return "GET_META";
  }
  return "UNKNOWN";
}

uint64_t TransferReport::TotalBytes(TransferKind kind) const {
  uint64_t total = 0;
  for (const TransferRecord& r : records) {
    if (r.kind == kind && r.success) {
      total += r.bytes;
    }
  }
  return total;
}

uint64_t TransferReport::BytesToCsp(int csp) const {
  uint64_t total = 0;
  for (const TransferRecord& r : records) {
    if (r.csp == csp && r.success) {
      total += r.bytes;
    }
  }
  return total;
}

size_t TransferReport::CountOf(TransferKind kind) const {
  size_t count = 0;
  for (const TransferRecord& r : records) {
    if (r.kind == kind) {
      ++count;
    }
  }
  return count;
}

void TransferReport::Append(const TransferReport& other) {
  records.insert(records.end(), other.records.begin(), other.records.end());
}

}  // namespace cyrus
