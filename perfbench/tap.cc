#include "perfbench/tap.h"

#include <chrono>

#include "src/util/strings.h"

namespace cyrus {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(const Span& span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void TapConnector::Record(Kind kind, std::string_view name, int64_t start_ns,
                          uint64_t bytes, bool ok) {
  const int64_t end_ns = NowNs();
  const bool meta = StartsWith(name, "meta-");
  std::string_view span_name;
  for (CallTally* tally : {&tally_->cloud, meta ? &tally_->meta : nullptr}) {
    if (tally == nullptr) {
      continue;
    }
    switch (kind) {
      case Kind::kUpload:
        tally->uploads.fetch_add(1, std::memory_order_relaxed);
        tally->upload_bytes.fetch_add(bytes, std::memory_order_relaxed);
        span_name = "upload";
        break;
      case Kind::kDownload:
        tally->downloads.fetch_add(1, std::memory_order_relaxed);
        tally->download_bytes.fetch_add(bytes, std::memory_order_relaxed);
        span_name = "download";
        break;
      case Kind::kList:
        tally->lists.fetch_add(1, std::memory_order_relaxed);
        span_name = "list";
        break;
      case Kind::kDelete:
        tally->deletes.fetch_add(1, std::memory_order_relaxed);
        span_name = "delete";
        break;
    }
    if (!ok) {
      tally->errors.fetch_add(1, std::memory_order_relaxed);
    }
    tally->busy_ns.fetch_add(static_cast<uint64_t>(end_ns - start_ns),
                             std::memory_order_relaxed);
  }
  log_->Add(Span{log_->op(), meta ? "meta" : "cloud", span_name, start_ns, end_ns,
                 bytes, ok});
}

Result<std::vector<ObjectInfo>> TapConnector::List(std::string_view prefix) {
  const int64_t start = NowNs();
  auto result = inner_->List(prefix);
  Record(Kind::kList, prefix, start, 0, result.ok());
  return result;
}

Status TapConnector::Upload(std::string_view name, ByteSpan data) {
  const int64_t start = NowNs();
  Status status = inner_->Upload(name, data);
  Record(Kind::kUpload, name, start, status.ok() ? data.size() : 0, status.ok());
  return status;
}

Result<Bytes> TapConnector::Download(std::string_view name) {
  const int64_t start = NowNs();
  auto result = inner_->Download(name);
  Record(Kind::kDownload, name, start, result.ok() ? result->size() : 0, result.ok());
  return result;
}

Status TapConnector::Delete(std::string_view name) {
  const int64_t start = NowNs();
  Status status = inner_->Delete(name);
  Record(Kind::kDelete, name, start, 0, status.ok());
  return status;
}

Result<DownloadAssignment> TimedSelector::Select(const DownloadProblem& problem) {
  const int64_t start = NowNs();
  auto result = inner_->Select(problem);
  const int64_t end = NowNs();
  tally_->select_calls.fetch_add(1, std::memory_order_relaxed);
  tally_->select_ns.fetch_add(static_cast<uint64_t>(end - start),
                              std::memory_order_relaxed);
  log_->Add(Span{log_->op(), "opt", "select", start, end, 0, result.ok()});
  return result;
}

}  // namespace perfbench
}  // namespace cyrus
