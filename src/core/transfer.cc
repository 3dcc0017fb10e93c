#include "src/core/transfer.h"

#include <chrono>
#include <functional>

namespace cyrus {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Distinct jitter stream per object without threading extra state through.
RetryOptions MixSeed(const RetryOptions& options, const std::string& object) {
  RetryOptions mixed = options;
  mixed.seed ^= std::hash<std::string>{}(object);
  return mixed;
}

}  // namespace

Status UploadWithRetry(CloudConnector& connector, TransferKind kind, int csp,
                       const std::string& object, ByteSpan data,
                       const RetryOptions& options, TransferReport& report) {
  return RetryWithBackoff(MixSeed(options, object), [&] {
    const auto start = std::chrono::steady_clock::now();
    Status upload = connector.Upload(object, data);
    report.records.push_back(TransferRecord{kind, csp, object, data.size(), upload.ok(),
                                            SecondsSince(start)});
    return upload;
  });
}

Result<Bytes> DownloadWithRetry(CloudConnector& connector, TransferKind kind, int csp,
                                const std::string& object, const RetryOptions& options,
                                TransferReport& report) {
  return RetryWithBackoff(MixSeed(options, object), [&]() -> Result<Bytes> {
    const auto start = std::chrono::steady_clock::now();
    Result<Bytes> data = connector.Download(object);
    report.records.push_back(TransferRecord{kind, csp, object,
                                            data.ok() ? data->size() : uint64_t{0},
                                            data.ok(), SecondsSince(start)});
    return data;
  });
}

void RecordTransferMetrics(const TransferReport& report,
                           obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    registry = &obs::MetricsRegistry::Default();
  }
  static constexpr TransferKind kKinds[] = {TransferKind::kPut, TransferKind::kGet,
                                            TransferKind::kPutMeta,
                                            TransferKind::kGetMeta};
  for (TransferKind kind : kKinds) {
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t bytes = 0;
    for (const TransferRecord& r : report.records) {
      if (r.kind != kind) {
        continue;
      }
      if (r.success) {
        ++ok;
        bytes += r.bytes;
      } else {
        ++failed;
      }
    }
    if (ok + failed == 0) {
      continue;
    }
    const std::string kind_name(TransferKindName(kind));
    if (ok > 0) {
      registry
          ->GetCounter("cyrus_transfer_requests_total",
                       {{"kind", kind_name}, {"result", "ok"}},
                       "Journaled transfer requests by kind and result")
          ->Increment(ok);
      registry
          ->GetCounter("cyrus_transfer_bytes_total", {{"kind", kind_name}},
                       "Bytes moved by successful transfer requests")
          ->Increment(bytes);
    }
    if (failed > 0) {
      registry
          ->GetCounter("cyrus_transfer_requests_total",
                       {{"kind", kind_name}, {"result", "error"}},
                       "Journaled transfer requests by kind and result")
          ->Increment(failed);
    }
  }
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
