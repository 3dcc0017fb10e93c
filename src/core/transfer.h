// Transfer records and the one CSP call layer (paper §5.3).
//
// The paper's core reaches providers only through the five-call connector
// and aggregates asynchronous connector events at three levels: one share,
// one chunk (n shares uploaded or t downloaded), and one file. Here a
// chunk completes inside ChunkWriter::Scatter (its quorum) or
// ChunkReader::Read (t authenticated shares), and a file when the
// pipelined Put/Get drains. The event types mirror the paper: PUT, GET,
// PUT_META, GET_META.
//
// Every connector call the core makes after AddCsp's Authenticate goes
// through CspCalls: the chunk reader's downloads and heals, the chunk
// writer's uploads, the metadata store's publishes, listings, stale
// deletes and fetches, scrub's probes and reclaims, foreign imports and
// journal rollbacks. The layer journals every upload and download attempt
// as a TransferRecord. Benchmarks feed those records into the fluid
// network simulator (src/sim/flow_network.h) to obtain completion times
// for the exact byte pattern a real deployment would have moved. Each
// record also carries the call's measured wall-clock duration, from which
// the client learns how far each CSP runs behind its profile
// (AvailabilityMonitor::RecordExcess).
#ifndef SRC_CORE_TRANSFER_H_
#define SRC_CORE_TRANSFER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/cloud/availability.h"
#include "src/cloud/connector.h"
#include "src/cloud/registry.h"
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

// The one path from the core to a CSP. Each call looks the connector up,
// retries transient failures (capped exponential backoff + jitter,
// src/util/retry.h; the seed is mixed with the object name so concurrent
// calls draw distinct jitter streams, and delays are virtual: counted, not
// slept), and hands a status that still indicts the provider after the
// retries (IsCspHealthFailure) to the client's one health path.
//
// Uploads and downloads also journal every attempt - failed ones included
// - into the caller's report with its measured duration, and book it as it
// lands: cyrus_transfer_requests_total{kind,result} and
// cyrus_transfer_bytes_total{kind} in the metrics registry, and a
// successful call's excess over its CSP's profile, seconds - (rtt + bytes
// / rate in the call's direction), into the monitor. Lists and deletes are
// neither journaled nor booked: a listing's cost grows with the number of
// names, which no profile predicts.
//
// Thread-safe: pool threads call it concurrently.
class CspCalls {
 public:
  // `metrics` null = the process-wide default registry. `on_health_failure`
  // receives the CSP of every call that failed with a health failure.
  CspCalls(CspRegistry* registry, AvailabilityMonitor* monitor, RetryOptions retry,
           obs::MetricsRegistry* metrics, std::function<void(int csp)> on_health_failure);
  // Readers, writers and the stores hold its address.
  CspCalls(const CspCalls&) = delete;
  CspCalls& operator=(const CspCalls&) = delete;

  Status Upload(int csp, TransferKind kind, const std::string& object, ByteSpan data,
                TransferReport& report);
  Result<Bytes> Download(int csp, TransferKind kind, const std::string& object,
                         TransferReport& report);
  Result<std::vector<ObjectInfo>> List(int csp, std::string_view prefix);
  Status Delete(int csp, const std::string& object);

 private:
  // Runs `op(connector)` under the retry policy and routes a final health
  // failure; `key` seeds the jitter stream.
  template <typename Op>
  auto Call(int csp, std::string_view key, Op op);
  // Journals one attempt and books it.
  void Record(TransferReport& report, TransferRecord record);

  CspRegistry* registry_;
  AvailabilityMonitor* monitor_;
  RetryOptions retry_;
  std::function<void(int csp)> on_health_failure_;
  // Per kind: requests ok, requests failed, bytes moved.
  struct KindCounters {
    obs::Counter* ok = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* bytes = nullptr;
  };
  std::array<KindCounters, 4> counters_;
};

}  // namespace cyrus

#endif  // SRC_CORE_TRANSFER_H_
