// One benchmark session: the testbed, the op runner that times every client
// call, and (in a traced session) the replays of the layers Put calls
// internally.
//
// Testbed: 5 in-memory SimulatedCsps carrying the §7.2 rates as
// CspProfiles (3 fast at 15 MB/s, 2 slow at 2 MB/s), each wrapped as
// TapConnector(MetricsConnector(SimulatedCsp)), and one CyrusClient per
// device. (t, n) is pinned to (2, 4) through epsilon. The in-memory CSPs
// move bytes at memory speed, so an op's real time is client CPU time; its
// simulated WAN time comes from the flow model over the op's
// TransferReport. The two are reported separately, never summed.
#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/tap.h"
#include "src/chunker/chunker.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/rs/secret_sharing.h"

namespace cyrus {
namespace perfbench {

constexpr uint32_t kT = 2;
constexpr uint32_t kN = 4;
constexpr int kNumCsps = 5;
constexpr uint64_t kMiB = 1024 * 1024;

struct TestbedOptions {
  ChunkerOptions chunker;
  uint64_t chunk_cache_bytes = 64 * kMiB;
  int devices = 1;
};

class Testbed {
 public:
  // Throws std::runtime_error if the client or a CSP cannot be set up.
  Testbed(const TestbedOptions& options, LayerTally* tally, SpanLog* log);

  CyrusClient& device(int i) { return *devices_[i]; }
  // Advances the virtual clock of every device and CSP.
  void SetTime(double now);
  // Bytes held at the CSPs (shares and metadata).
  uint64_t StoredBytes() const;
  // Simulated WAN completion time of one op's transfers.
  double WanSeconds(const TransferReport& report) const;

 private:
  std::vector<std::shared_ptr<SimulatedCsp>> csps_;
  std::vector<double> bytes_per_sec_;
  std::vector<std::unique_ptr<CyrusClient>> devices_;
};

enum class OpKind { kPut, kGet, kRange, kList };

struct OpSample {
  OpKind kind = OpKind::kPut;
  double ms = 0;      // real time of the client call
  double wan_s = 0;   // simulated WAN time of its transfers
  double cpu_s = 0;   // process CPU time (all threads) during the call
  uint64_t bytes = 0; // user bytes written or returned
};

// Replays Chunker::Split, Sha1::Hash and the codec on each Put's input,
// just before the Put runs, and checks the replay against what the Put
// reports, so the per-layer rates time the work the program actually did.
class Replayer {
 public:
  Replayer(const ChunkerOptions& chunker, const std::string& key);

  // Returns the bytes of the chunks this Put will store anew (those not
  // yet in `table` and not repeated earlier in the content).
  uint64_t Replay(const ChunkTable& table, ByteSpan content);

  uint64_t split_ns = 0, split_bytes = 0, chunks = 0;
  uint64_t sha1_ns = 0, sha1_bytes = 0;
  uint64_t encode_ns = 0, encode_bytes = 0;
  uint64_t decode_ns = 0, decode_bytes = 0;
  bool decode_ok = true;

 private:
  Chunker chunker_;
  SecretSharingCodec codec_;
  std::vector<Bytes> shares_;
  Bytes decoded_;
};

// Outcome of comparing the replays with the program's own counts.
struct ReplayCheck {
  uint64_t replay_chunks = 0;
  uint64_t put_total_chunks = 0;        // sum of PutResult.total_chunks
  uint64_t replay_encode_bytes = 0;     // new-chunk bytes the replay encoded
  uint64_t program_encode_bytes = 0;    // cyrus_codec_encode_bytes_total delta
  uint64_t meta_envelope_bytes = 0;     // program - replay: metadata encodes
  bool encode_match = true;
  bool ok() const;
};

class Session {
 public:
  // `traced` enables spans and the Put replays.
  Session(const TestbedOptions& options, bool traced);

  Testbed& bed() { return *bed_; }
  // Replaces the testbed with a fresh one (empty CSPs, new clients).
  void ResetTestbed();
  // Switches from set-up to the measured phase: samples and counters
  // recorded from here on are the phase's.
  void BeginMeasuring();

  // Timed client calls. A failed call counts as failed and returns false.
  bool Put(int device, std::string_view name, ByteSpan content);
  bool Get(int device, std::string_view name, GetResult* out);
  bool GetRange(int device, std::string_view name, uint64_t offset, uint64_t len,
                GetResult* out);
  bool List(int device, std::vector<FileListing>* out);
  // Records the outcome of a correctness check on an op's output: a wrong
  // output counts as a failed op.
  void Check(bool correct);

  // Measured-phase ops in order, and the Puts set-up made.
  std::vector<OpSample> ops;
  std::vector<OpSample> setup_puts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t put_chunks = 0;
  uint64_t put_dedup_chunks = 0;
  double storage_overhead = 0;  // set by the workload
  uint64_t first_measured_op = 0;

  LayerTally tally;
  SpanLog spans;
  std::unique_ptr<Replayer> replayer;  // traced sessions only
  ReplayCheck replay_check;

 private:
  // Files one finished call that started at `start_ns` with the process
  // at `start_cpu_s` CPU seconds.
  bool Record(OpKind kind, std::string_view name, int64_t start_ns, double start_cpu_s,
              bool ok, const TransferReport* report, uint64_t bytes);

  TestbedOptions options_;
  std::unique_ptr<Testbed> bed_;
  bool measuring_ = false;
  uint64_t next_op_ = 1;
};

// Sum over label sets of a registry family in the default registry
// (histograms contribute their sum).
double RegistryTotal(std::string_view name);

// User + system CPU time of the whole process, every thread included.
double ProcessCpuSeconds();

}  // namespace perfbench
}  // namespace cyrus

#endif  // PERFBENCH_SESSION_H_
