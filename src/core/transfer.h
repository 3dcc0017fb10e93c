// Transfer records and retrying connector calls (paper §5.3).
//
// The paper's core aggregates asynchronous connector events at three
// levels: one share, one chunk (n shares uploaded or t downloaded), and one
// file. Here a chunk completes inside ChunkWriter::Scatter (its quorum) or
// ChunkReader::Read (t authenticated shares), and a file when the
// pipelined Put/Get drains. The event types mirror the paper: PUT, GET,
// PUT_META, GET_META.
//
// The core also journals every request as a TransferRecord. Benchmarks feed
// those records into the fluid network simulator (src/sim/flow_network.h)
// to obtain completion times for the exact byte pattern a real deployment
// would have moved. Each record also carries the connector call's measured
// wall-clock duration, from which the client learns how far each CSP runs
// behind its profile (AvailabilityMonitor::RecordExcess).
#ifndef SRC_CORE_TRANSFER_H_
#define SRC_CORE_TRANSFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cloud/connector.h"
#include "src/obs/metrics.h"
#include "src/util/result.h"
#include "src/util/retry.h"

namespace cyrus {

enum class TransferKind { kPut, kGet, kPutMeta, kGetMeta };

std::string_view TransferKindName(TransferKind kind);

struct TransferRecord {
  TransferKind kind = TransferKind::kPut;
  int csp = -1;
  std::string object_name;
  uint64_t bytes = 0;
  bool success = true;
  // Wall-clock duration of the connector call; 0 for records that no
  // timed call produced.
  double seconds = 0.0;
};

// Journal of the requests one API call issued. Records within a phase are
// logically concurrent (CYRUS issues them in parallel); metadata uploads
// happen strictly after all share uploads (Algorithm 2 line 10).
struct TransferReport {
  std::vector<TransferRecord> records;

  uint64_t TotalBytes(TransferKind kind) const;
  uint64_t BytesToCsp(int csp) const;
  size_t CountOf(TransferKind kind) const;
  void Append(const TransferReport& other);
};

// Folds a completed report into `registry` as
// cyrus_transfer_requests_total{kind,result} and
// cyrus_transfer_bytes_total{kind}, giving the pipeline-level view that
// complements MetricsConnector's per-CSP series (the report journals
// logical requests, including ones that never reached a connector).
void RecordTransferMetrics(const TransferReport& report, obs::MetricsRegistry* registry);

// Connector calls with transient-failure retry (capped exponential backoff
// + jitter, src/util/retry.h) and per-attempt journaling: every attempt -
// including the failed ones - is appended to `report` with its measured
// duration, so benches see the true request pattern a retrying client
// generates. The retry seed is mixed
// with the object name so concurrent transfers draw distinct jitter
// streams. Backoff delays are virtual (counted, not slept).
Status UploadWithRetry(CloudConnector& connector, TransferKind kind, int csp,
                       const std::string& object, ByteSpan data,
                       const RetryOptions& options, TransferReport& report);
Result<Bytes> DownloadWithRetry(CloudConnector& connector, TransferKind kind, int csp,
                                const std::string& object, const RetryOptions& options,
                                TransferReport& report);

}  // namespace cyrus

#endif  // SRC_CORE_TRANSFER_H_
