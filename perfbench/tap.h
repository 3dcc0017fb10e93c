// Bench-side instrumentation at the two seams CyrusClient exposes: the
// connector handed to AddCsp and the selector set via set_download_selector.
//
// TapConnector counts every call, sorting it into "meta" (object name or
// list prefix starting with "meta-") or data, and TimedSelector counts and
// times every download selection. When the SpanLog is enabled, both also
// record one span per call tagged with the id of the client operation in
// progress, so a traced run can attribute connector time to ops.
#ifndef PERFBENCH_TAP_H_
#define PERFBENCH_TAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/cloud/connector.h"
#include "src/opt/download_selector.h"

namespace cyrus {
namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  uint64_t op = 0;             // client operation id (0 = outside any op)
  std::string_view layer;      // "client", "cloud", "meta", "opt"
  std::string_view name;       // "put", "upload", "select", ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  bool ok = true;
};

// In-memory span store, written out once the run ends. Disabled logs drop
// every span; the current op id is tracked either way.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_op(uint64_t op) { op_.store(op, std::memory_order_relaxed); }
  uint64_t op() const { return op_.load(std::memory_order_relaxed); }

  void Add(const Span& span);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> op_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Connector call totals for one class of calls.
struct CallTally {
  std::atomic<uint64_t> uploads{0};
  std::atomic<uint64_t> downloads{0};
  std::atomic<uint64_t> lists{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> upload_bytes{0};
  std::atomic<uint64_t> download_bytes{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> busy_ns{0};
};

// Shared by every tap of one testbed.
struct LayerTally {
  CallTally cloud;  // every connector call
  CallTally meta;   // the metadata subset of `cloud`
  std::atomic<uint64_t> select_calls{0};
  std::atomic<uint64_t> select_ns{0};
};

class TapConnector final : public CloudConnector {
 public:
  TapConnector(std::shared_ptr<CloudConnector> inner, LayerTally* tally, SpanLog* log)
      : inner_(std::move(inner)), tally_(tally), log_(log) {}

  std::string_view id() const override { return inner_->id(); }
  Status Authenticate(const Credentials& credentials) override {
    return inner_->Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override;
  Status Upload(std::string_view name, ByteSpan data) override;
  Result<Bytes> Download(std::string_view name) override;
  Status Delete(std::string_view name) override;

 private:
  enum class Kind { kUpload, kDownload, kList, kDelete };
  void Record(Kind kind, std::string_view name, int64_t start_ns, uint64_t bytes,
              bool ok);

  std::shared_ptr<CloudConnector> inner_;
  LayerTally* tally_;
  SpanLog* log_;
};

class TimedSelector final : public DownloadSelector {
 public:
  TimedSelector(std::unique_ptr<DownloadSelector> inner, LayerTally* tally, SpanLog* log)
      : inner_(std::move(inner)), tally_(tally), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override;

 private:
  std::unique_ptr<DownloadSelector> inner_;
  LayerTally* tally_;
  SpanLog* log_;
};

}  // namespace perfbench
}  // namespace cyrus

#endif  // PERFBENCH_TAP_H_
