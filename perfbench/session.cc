#include "perfbench/session.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "bench/common.h"
#include "src/cloud/metrics_connector.h"
#include "src/core/reliability.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace cyrus {
namespace perfbench {
namespace {

constexpr int kNumFast = 3;
constexpr double kFastBytesPerSec = 15e6;
constexpr double kSlowBytesPerSec = 2e6;
constexpr char kKey[] = "perfbench-key";

template <typename T>
T OrThrow(Result<T> result, std::string_view what) {
  if (!result.ok()) {
    throw std::runtime_error(StrCat(what, ": ", result.status().ToString()));
  }
  return std::move(result).value();
}

uint64_t EncodeCounter() {
  return static_cast<uint64_t>(RegistryTotal("cyrus_codec_encode_bytes_total"));
}

}  // namespace

double RegistryTotal(std::string_view name) {
  double total = 0;
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Default().Snapshot(name).metrics) {
    if (m.name == name) {
      total += m.kind == obs::InstrumentKind::kHistogram ? m.histogram.sum : m.value;
    }
  }
  return total;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// --- Testbed ----------------------------------------------------------------

Testbed::Testbed(const TestbedOptions& options, LayerTally* tally, SpanLog* log) {
  CyrusConfig config;
  config.key_string = kKey;
  config.t = kT;
  config.cluster_aware = false;
  config.chunker = options.chunker;
  config.chunk_cache_bytes = options.chunk_cache_bytes;
  // Pin Eq. (1) to n = kN: epsilon between the loss probabilities of n and
  // n - 1 shares, as bench::MakeTestbed does.
  const double loss_n = ChunkLossProbability(kT, kN, config.default_failure_prob);
  const double loss_prev = ChunkLossProbability(kT, kN - 1, config.default_failure_prob);
  config.epsilon = std::sqrt(loss_n * loss_prev);

  std::vector<std::shared_ptr<CloudConnector>> connectors;
  for (int i = 0; i < kNumCsps; ++i) {
    const bool fast = i < kNumFast;
    SimulatedCspOptions o;
    o.id = StrCat(fast ? "fast" : "slow", i);
    o.naming = (i % 2 == 0) ? NamingPolicy::kNameKeyed : NamingPolicy::kIdKeyed;
    csps_.push_back(std::make_shared<SimulatedCsp>(o));
    bytes_per_sec_.push_back(fast ? kFastBytesPerSec : kSlowBytesPerSec);
    connectors.push_back(std::make_shared<TapConnector>(
        std::make_shared<MetricsConnector>(csps_.back()), tally, log));
  }
  for (int d = 0; d < options.devices; ++d) {
    config.client_id = StrCat("device-", d);
    devices_.push_back(OrThrow(CyrusClient::Create(config), "create client"));
    CyrusClient& client = *devices_.back();
    for (int i = 0; i < kNumCsps; ++i) {
      CspProfile profile;
      profile.rtt_ms = 1.0;
      profile.download_bytes_per_sec = bytes_per_sec_[i];
      profile.upload_bytes_per_sec = bytes_per_sec_[i];
      OrThrow(client.AddCsp(connectors[i], profile, Credentials{"token"}), "add CSP");
    }
    client.set_download_selector(std::make_unique<TimedSelector>(
        std::make_unique<OptimalDownloadSelector>(), tally, log));
  }
}

void Testbed::SetTime(double now) {
  for (auto& csp : csps_) {
    csp->set_time(now);
  }
  for (auto& device : devices_) {
    device->set_time(now);
  }
}

uint64_t Testbed::StoredBytes() const {
  uint64_t total = 0;
  for (const auto& csp : csps_) {
    total += csp->used_bytes();
  }
  return total;
}

double Testbed::WanSeconds(const TransferReport& report) const {
  return bench::TransferCompletionSeconds(report, bytes_per_sec_, bytes_per_sec_);
}

// --- Replayer ---------------------------------------------------------------

Replayer::Replayer(const ChunkerOptions& chunker, const std::string& key)
    : chunker_(OrThrow(Chunker::Create(chunker), "chunker")),
      codec_(OrThrow(SecretSharingCodec::Create(key, kT, kN), "codec")),
      shares_(kN) {}

uint64_t Replayer::Replay(const ChunkTable& table, ByteSpan content) {
  int64_t start = NowNs();
  const std::vector<ChunkSpan> spans = chunker_.Split(content);
  split_ns += NowNs() - start;
  split_bytes += content.size();
  chunks += spans.size();

  std::vector<Sha1Digest> ids(spans.size());
  start = NowNs();
  for (size_t i = 0; i < spans.size(); ++i) {
    ids[i] = Sha1::Hash(content.subspan(spans[i].offset, spans[i].size));
  }
  sha1_ns += NowNs() - start;
  sha1_bytes += content.size();

  uint64_t new_bytes = 0;
  std::set<Sha1Digest> seen;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (table.Contains(ids[i]) || !seen.insert(ids[i]).second) {
      continue;
    }
    const ByteSpan chunk = content.subspan(spans[i].offset, spans[i].size);
    new_bytes += chunk.size();
    const size_t share_len = ShareSize(chunk.size(), kT);
    std::vector<MutableByteSpan> dsts;
    for (Bytes& share : shares_) {
      share.resize(share_len);
      dsts.emplace_back(share);
    }
    start = NowNs();
    const Status encoded = codec_.EncodeInto(chunk, dsts);
    encode_ns += NowNs() - start;
    encode_bytes += chunk.size();

    // Decode from the two slowest-to-reach rows, as a Get that lost the
    // first shares would.
    std::vector<Share> inputs = {{2, shares_[2]}, {3, shares_[3]}};
    decoded_.resize(chunk.size());
    start = NowNs();
    const Status decoded = codec_.DecodeInto(inputs, decoded_);
    decode_ns += NowNs() - start;
    decode_bytes += chunk.size();
    decode_ok = decode_ok && encoded.ok() && decoded.ok() &&
                std::memcmp(decoded_.data(), chunk.data(), chunk.size()) == 0;
  }
  return new_bytes;
}

bool ReplayCheck::ok() const {
  return replay_chunks == put_total_chunks && encode_match;
}

// --- Session ----------------------------------------------------------------

Session::Session(const TestbedOptions& options, bool traced)
    : spans(traced), options_(options) {
  if (traced) {
    replayer = std::make_unique<Replayer>(options.chunker, kKey);
  }
  ResetTestbed();
}

void Session::ResetTestbed() {
  bed_.reset();
  bed_ = std::make_unique<Testbed>(options_, &tally, &spans);
}

void Session::BeginMeasuring() {
  measuring_ = true;
  first_measured_op = next_op_;
}

bool Session::Record(OpKind kind, std::string_view name, int64_t start_ns,
                     double start_cpu_s, bool ok, const TransferReport* report,
                     uint64_t bytes) {
  const int64_t end_ns = NowNs();
  const double cpu_s = ProcessCpuSeconds() - start_cpu_s;
  spans.Add(Span{spans.op(), "client", name, start_ns, end_ns, bytes, ok});
  spans.set_op(0);
  OpSample sample{kind, (end_ns - start_ns) / 1e6,
                  report != nullptr ? bed_->WanSeconds(*report) : 0.0, cpu_s, bytes};
  if (measuring_) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
    ops.push_back(sample);
  } else if (kind == OpKind::kPut) {
    if (!ok) {
      throw std::runtime_error("set-up Put failed");
    }
    setup_puts.push_back(sample);
  }
  return ok;
}

void Session::Check(bool correct) {
  if (correct) {
    return;
  }
  if (!measuring_) {
    throw std::runtime_error("set-up read returned wrong bytes");
  }
  ++failed;
}

bool Session::Put(int device, std::string_view name, ByteSpan content) {
  CyrusClient& client = bed_->device(device);
  uint64_t replay_new_bytes = 0;
  uint64_t encode_before = 0;
  const uint64_t meta_bytes_before = tally.meta.upload_bytes.load();
  const uint64_t meta_uploads_before = tally.meta.uploads.load();
  if (replayer != nullptr) {
    replay_new_bytes = replayer->Replay(client.chunk_table(), content);
    encode_before = EncodeCounter();
  }

  spans.set_op(next_op_++);
  const double start_cpu = ProcessCpuSeconds();
  const int64_t start = NowNs();
  auto result = client.Put(name, content);
  if (!Record(OpKind::kPut, "put", start, start_cpu, result.ok(),
              result.ok() ? &result->transfer : nullptr, content.size())) {
    return false;
  }
  if (measuring_) {
    put_chunks += result->total_chunks;
    put_dedup_chunks += result->dedup_chunks;
  }
  if (replayer != nullptr) {
    // The codec counter also counts each metadata envelope, secret-shared
    // (t = 2) to every CSP: an envelope of E bytes yields kNumCsps shares
    // of ceil(E / 2) bytes, so per envelope 0 <= 2 * share_bytes - 5 * E
    // <= 5. Everything beyond that must be the chunks the replay encoded.
    ReplayCheck& c = replay_check;
    const uint64_t program = EncodeCounter() - encode_before;
    const uint64_t meta_bytes = tally.meta.upload_bytes.load() - meta_bytes_before;
    const uint64_t meta_uploads = tally.meta.uploads.load() - meta_uploads_before;
    const uint64_t envelope = program >= replay_new_bytes ? program - replay_new_bytes : 0;
    c.replay_chunks = replayer->chunks;
    c.put_total_chunks += result->total_chunks;
    c.replay_encode_bytes += replay_new_bytes;
    c.program_encode_bytes += program;
    c.meta_envelope_bytes += envelope;
    c.encode_match = c.encode_match && program >= replay_new_bytes &&
                     meta_uploads % kNumCsps == 0 &&
                     2 * meta_bytes >= kNumCsps * envelope &&
                     2 * meta_bytes - kNumCsps * envelope <= meta_uploads;
  }
  return true;
}

bool Session::Get(int device, std::string_view name, GetResult* out) {
  spans.set_op(next_op_++);
  const double start_cpu = ProcessCpuSeconds();
  const int64_t start = NowNs();
  auto result = bed_->device(device).Get(name);
  const bool ok = Record(OpKind::kGet, "get", start, start_cpu, result.ok(),
                         result.ok() ? &result->transfer : nullptr,
                         result.ok() ? result->content.size() : 0);
  if (ok) {
    *out = *std::move(result);
  }
  return ok;
}

bool Session::GetRange(int device, std::string_view name, uint64_t offset, uint64_t len,
                       GetResult* out) {
  spans.set_op(next_op_++);
  const double start_cpu = ProcessCpuSeconds();
  const int64_t start = NowNs();
  auto result = bed_->device(device).GetRange(name, offset, len);
  const bool ok = Record(OpKind::kRange, "range", start, start_cpu, result.ok(),
                         result.ok() ? &result->transfer : nullptr,
                         result.ok() ? result->content.size() : 0);
  if (ok) {
    *out = *std::move(result);
  }
  return ok;
}

bool Session::List(int device, std::vector<FileListing>* out) {
  spans.set_op(next_op_++);
  const double start_cpu = ProcessCpuSeconds();
  const int64_t start = NowNs();
  auto result = bed_->device(device).List("");
  const bool ok = Record(OpKind::kList, "list", start, start_cpu, result.ok(), nullptr, 0);
  if (ok) {
    *out = *std::move(result);
  }
  return ok;
}

}  // namespace perfbench
}  // namespace cyrus
