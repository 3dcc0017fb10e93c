// cyrus_perfbench: the end-to-end client benchmark.
//
//   cyrus_perfbench --workload bulk|sync|stream --seed N --seconds S
//                   --trace 0|1 [--scale tiny] [--spans-out FILE]
//
// --trace 0 sets the workload up kSetups times (set-up time is the median), runs
// the measured phase once and prints the end-to-end metrics. --trace 1 runs
// the measured phase untraced and then traced, on two fresh set-ups of the
// same seed, and prints the per-layer metrics. Every read is checked
// against the generator's bytes. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every op succeeded and returned the right
// bytes (and, traced, the replays matched the program's own counts).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "perfbench/session.h"
#include "perfbench/workloads.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cyrus {
namespace perfbench {
namespace {

// Host CPU time over all CPUs (clock ticks, first line of /proc/stat) and
// the part of it the hypervisor gave to other guests (steal).
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

struct Args {
  HostTicks host_at_start;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

// Set-ups per untraced run; set-up time is their median.
constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

// A JSON string literal (escapes quotes and backslashes; the texts quoted
// here hold no control characters).
std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrCat(i ? ", " : "", Quote(metrics[i].name), ": {\"value\": ",
                  Json(metrics[i].value), ", \"unit\": ", Quote(metrics[i].unit), "}");
  }
  return out + "}";
}

double Median(const std::vector<double>& v) {
  return v.empty() ? 0 : bench::Percentile(v, 50);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Samples of the given kinds, in op order.
std::vector<OpSample> OfKind(const std::vector<OpSample>& ops,
                             std::initializer_list<OpKind> kinds) {
  std::vector<OpSample> out;
  for (const OpSample& op : ops) {
    if (std::find(kinds.begin(), kinds.end(), op.kind) != kinds.end()) {
      out.push_back(op);
    }
  }
  return out;
}

struct Summary {
  size_t count = 0;
  double mibps = 0;     // user bytes / summed real time
  double cpu_ms_per_mib = 0;  // summed process CPU time / user bytes
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double wan_s = 0;     // mean simulated WAN seconds per op
};

Summary Summarize(const std::vector<OpSample>& ops) {
  Summary s;
  s.count = ops.size();
  std::vector<double> ms;
  double bytes = 0, total_ms = 0, wan = 0, cpu_s = 0;
  for (const OpSample& op : ops) {
    ms.push_back(op.ms);
    bytes += op.bytes;
    total_ms += op.ms;
    wan += op.wan_s;
    cpu_s += op.cpu_s;
  }
  if (ms.empty()) {
    return s;
  }
  s.mibps = Ratio(bytes / kMiB, total_ms / 1000);
  s.cpu_ms_per_mib = Ratio(1000 * cpu_s, bytes / kMiB);
  s.p50_ms = bench::Percentile(ms, 50);
  s.p95_ms = bench::Percentile(ms, 95);
  s.p99_ms = bench::Percentile(ms, 99);
  s.wan_s = wan / ops.size();
  return s;
}

void PrintEnv(const Args& args) {
  std::string kernel = "none";
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Default().Snapshot("cyrus_codec_kernel_active").metrics) {
    if (m.value == 1.0 && !m.labels.empty()) {
      kernel = m.labels.front().second;
    }
  }
  const char* override_kernel = std::getenv("CYRUS_CODEC_KERNEL");
  // CPU time stolen from this guest during the run: every timing above
  // stretches with it, so runs with different steal are not comparable.
  const HostTicks now = ReadHostTicks();
  const uint64_t total = now.total - args.host_at_start.total;
  const std::string steal_pct =
      total > 0 ? Json(100.0 * (now.steal - args.host_at_start.steal) / total) : "null";
  std::printf(
      "env {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"scale\": %s, \"nproc\": %u, \"build_type\": %s, \"codec_kernel\": %s, "
      "\"codec_kernel_override\": %s, \"host_steal_pct\": %s}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      Json(args.seconds).c_str(), args.trace ? 1 : 0,
      Quote(args.tiny ? "tiny" : "full").c_str(), std::thread::hardware_concurrency(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(kernel).c_str(),
      override_kernel ? Quote(override_kernel).c_str() : "null", steal_pct.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

// --- Untraced run: end-to-end metrics ---------------------------------------

int RunEndToEnd(const Args& args, Workload& workload) {
  std::vector<double> setup_s;
  std::vector<OpSample> setup_puts;
  std::unique_ptr<Session> session;
  for (int k = 0; k < kSetups; ++k) {
    session.reset();
    const int64_t start = NowNs();
    session = std::make_unique<Session>(workload.testbed(), /*traced=*/false);
    workload.Setup(*session);
    setup_s.push_back((NowNs() - start) / 1e9);
    setup_puts.insert(setup_puts.end(), session->setup_puts.begin(),
                      session->setup_puts.end());
  }
  Session& s = *session;
  workload.WarmUp(s);
  s.BeginMeasuring();
  workload.Measure(s, args.seconds);

  const std::vector<OpSample> puts = OfKind(s.ops, {OpKind::kPut});
  // A workload whose measured phase writes nothing reports its set-up Puts.
  const Summary write = Summarize(puts.empty() ? setup_puts : puts);
  const Summary read = Summarize(OfKind(s.ops, {OpKind::kGet, OpKind::kRange}));
  const Summary get = Summarize(OfKind(s.ops, {OpKind::kGet}));
  const Summary range = Summarize(OfKind(s.ops, {OpKind::kRange}));
  const Summary list = Summarize(OfKind(s.ops, {OpKind::kList}));
  const double failed_frac = Ratio(s.failed, s.attempted);
  const double rss = PeakRssMiB();

  // The workload's own metrics, by the names its documentation uses.
  std::vector<Metric> report = {
      {"setup_s", Median(setup_s), "s"},
      {"write_MiBps", write.mibps, "MiB/s"},
      {"read_MiBps", read.mibps, "MiB/s"},
      {"storage_overhead", s.storage_overhead, "ratio"},
      {"failed_frac", failed_frac, "ratio"},
      {"peak_rss_MiB", rss, "MiB"},
  };
  if (args.workload == "bulk") {
    report.insert(report.end(), {{"put_MiBps", write.mibps, "MiB/s"},
                                 {"get_MiBps", get.mibps, "MiB/s"},
                                 {"put_wan_s", write.wan_s, "s"},
                                 {"get_wan_s", get.wan_s, "s"},
                                 {"puts", double(write.count), "count"},
                                 {"gets", double(get.count), "count"}});
  } else if (args.workload == "sync") {
    report.insert(report.end(), {{"put_p50_ms", write.p50_ms, "ms"},
                                 {"put_p95_ms", write.p95_ms, "ms"},
                                 {"get_p50_ms", get.p50_ms, "ms"},
                                 {"get_p95_ms", get.p95_ms, "ms"},
                                 {"list_p50_ms", list.p50_ms, "ms"},
                                 {"puts", double(write.count), "count"},
                                 {"gets", double(get.count), "count"},
                                 {"lists", double(list.count), "count"}});
  } else {
    report.insert(report.end(), {{"range_p50_ms", range.p50_ms, "ms"},
                                 {"range_p99_ms", range.p99_ms, "ms"},
                                 {"range_MiBps", range.mibps, "MiB/s"},
                                 {"ranges", double(range.count), "count"}});
  }
  PrintEnv(args);
  std::printf("report %s\n", MetricsJson(report).c_str());

  const bool correct = s.failed == 0;
  PrintResult(correct, s.attempted, s.failed,
              {{"setup_s", Median(setup_s), "s"},
               {"write_cpu_ms_per_MiB", write.cpu_ms_per_mib, "ms/MiB"},
               {"read_cpu_ms_per_MiB", read.cpu_ms_per_mib, "ms/MiB"},
               {"read_wan_s", read.wan_s, "s"},
               {"storage_overhead", s.storage_overhead, "ratio"},
               {"peak_rss_MiB", rss, "MiB"}});
  return correct ? 0 : 1;
}

// --- Traced run: per-layer metrics ------------------------------------------

// Registry counters the program exports, read as deltas over a phase.
const char* const kRegistryCounters[] = {
    "cyrus_codec_encode_bytes_total",    "cyrus_codec_decode_bytes_total",
    "cyrus_chunk_cache_hits_total",      "cyrus_chunk_cache_misses_total",
    "cyrus_chunk_cache_evictions_total", "cyrus_readahead_issued_total",
    "cyrus_readahead_completed_total",   "cyrus_readahead_cancelled_total",
    "cyrus_pipeline_stalls_total",       "cyrus_pipeline_stall_ms",
    "cyrus_bufpool_hits_total",          "cyrus_bufpool_misses_total",
};

std::map<std::string, double> ReadRegistry() {
  std::map<std::string, double> values;
  for (const char* name : kRegistryCounters) {
    values[name] = RegistryTotal(name);
  }
  return values;
}

struct CallValues {
  double uploads, downloads, lists, deletes, upload_bytes, download_bytes, errors, busy_ns;
};

CallValues Read(const CallTally& t) {
  return {double(t.uploads.load()),      double(t.downloads.load()),
          double(t.lists.load()),        double(t.deletes.load()),
          double(t.upload_bytes.load()), double(t.download_bytes.load()),
          double(t.errors.load()),       double(t.busy_ns.load())};
}

CallValues Minus(const CallValues& a, const CallValues& b) {
  return {a.uploads - b.uploads,           a.downloads - b.downloads,
          a.lists - b.lists,               a.deletes - b.deletes,
          a.upload_bytes - b.upload_bytes, a.download_bytes - b.download_bytes,
          a.errors - b.errors,             a.busy_ns - b.busy_ns};
}

// Per op: its span minus the part of it the connector and selector spans
// inside it cover (their union, since they overlap on pool threads).
double ClientSelfMs(const std::vector<Span>& spans, uint64_t first_op) {
  std::map<uint64_t, const Span*> ops;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.op < first_op) {
      continue;
    }
    if (span.layer == "client") {
      ops[span.op] = &span;
    } else {
      children[span.op].push_back({span.start_ns, span.end_ns});
    }
  }
  double self_ns = 0;
  for (const auto& [id, op] : ops) {
    auto& intervals = children[id];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, reach = op->start_ns;
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, op->end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self_ns += double(op->end_ns - op->start_ns - covered);
  }
  return self_ns / 1e6;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << "{\"op\": " << s.op << ", \"layer\": " << Quote(s.layer)
        << ", \"name\": " << Quote(s.name) << ", \"start_us\": "
        << Json((s.start_ns - origin) / 1e3) << ", \"dur_us\": "
        << Json((s.end_ns - s.start_ns) / 1e3) << ", \"bytes\": " << s.bytes
        << ", \"ok\": " << (s.ok ? "true" : "false") << "}\n";
  }
}

int RunTraced(const Args& args, Workload& workload) {
  // Untraced reference on its own set-up, for the tracing overhead.
  std::vector<double> plain_ms;
  uint64_t plain_failed = 0, plain_attempted = 0;
  {
    Session plain(workload.testbed(), /*traced=*/false);
    workload.Setup(plain);
    workload.WarmUp(plain);
    plain.BeginMeasuring();
    workload.Measure(plain, args.seconds);
    for (const OpSample& op : plain.ops) {
      plain_ms.push_back(op.ms);
    }
    plain_failed = plain.failed;
    plain_attempted = plain.attempted;
  }

  Session s(workload.testbed(), /*traced=*/true);
  workload.Setup(s);
  workload.WarmUp(s);
  const std::map<std::string, double> reg0 = ReadRegistry();
  const CallValues cloud0 = Read(s.tally.cloud), meta0 = Read(s.tally.meta);
  const double select_calls0 = s.tally.select_calls.load();
  const double select_ns0 = s.tally.select_ns.load();
  s.BeginMeasuring();
  workload.Measure(s, args.seconds);
  std::map<std::string, double> reg = ReadRegistry();
  for (auto& [name, value] : reg) {
    value -= reg0.at(name);
  }
  const CallValues cloud = Minus(Read(s.tally.cloud), cloud0);
  const CallValues meta = Minus(Read(s.tally.meta), meta0);
  const std::vector<Span> spans = s.spans.spans();
  if (!args.spans_out.empty()) {
    WriteSpans(args.spans_out, spans);
  }

  // Overhead over the ops both phases ran: the op sequence comes from the
  // seed alone, so op i is the same call in both.
  const size_t common = std::min(plain_ms.size(), s.ops.size());
  double plain_total = 0, traced_total = 0;
  for (size_t i = 0; i < common; ++i) {
    plain_total += plain_ms[i];
    traced_total += s.ops[i].ms;
  }
  uint64_t bytes_read = 0;
  for (const OpSample& op : OfKind(s.ops, {OpKind::kGet, OpKind::kRange})) {
    bytes_read += op.bytes;
  }
  const Replayer& r = *s.replayer;
  const ReplayCheck& check = s.replay_check;
  const double ops = double(s.ops.size());

  PrintEnv(args);
  std::printf(
      "replay_check {\"replay_chunks\": %llu, \"put_total_chunks\": %llu, "
      "\"replay_encode_bytes\": %llu, \"program_encode_bytes\": %llu, "
      "\"meta_envelope_bytes\": %llu, \"encode_match\": %s, \"decode_match\": %s}\n",
      (unsigned long long)check.replay_chunks, (unsigned long long)check.put_total_chunks,
      (unsigned long long)check.replay_encode_bytes,
      (unsigned long long)check.program_encode_bytes,
      (unsigned long long)check.meta_envelope_bytes, check.encode_match ? "true" : "false",
      r.decode_ok ? "true" : "false");
  if (!args.spans_out.empty()) {
    std::printf("spans %zu written to %s\n", spans.size(), args.spans_out.c_str());
  }

  const auto mbps = [](uint64_t bytes, uint64_t ns) { return Ratio(bytes / 1e6, ns / 1e9); };
  const double cache_lookups = reg["cyrus_chunk_cache_hits_total"] +
                               reg["cyrus_chunk_cache_misses_total"];
  const double pool_checkouts =
      reg["cyrus_bufpool_hits_total"] + reg["cyrus_bufpool_misses_total"];
  const std::vector<Metric> layers = {
      {"chunker.MBps", mbps(r.split_bytes, r.split_ns), "MB/s"},
      {"chunker.chunks", double(r.chunks), "count"},
      {"crypto.sha1_MBps", mbps(r.sha1_bytes, r.sha1_ns), "MB/s"},
      {"rs.encode_MBps", mbps(r.encode_bytes, r.encode_ns), "MB/s"},
      {"rs.decode_MBps", mbps(r.decode_bytes, r.decode_ns), "MB/s"},
      {"rs.encode_bytes", reg["cyrus_codec_encode_bytes_total"], "bytes"},
      {"rs.decode_bytes", reg["cyrus_codec_decode_bytes_total"], "bytes"},
      {"cloud.upload_calls", cloud.uploads, "count"},
      {"cloud.download_calls", cloud.downloads, "count"},
      {"cloud.list_calls", cloud.lists, "count"},
      {"cloud.delete_calls", cloud.deletes, "count"},
      {"cloud.upload_bytes", cloud.upload_bytes, "bytes"},
      {"cloud.download_bytes", cloud.download_bytes, "bytes"},
      {"cloud.busy_ms", cloud.busy_ns / 1e6, "ms"},
      {"cloud.errors", cloud.errors, "count"},
      {"cloud.read_amplification", Ratio(cloud.download_bytes, double(bytes_read)), "ratio"},
      {"meta.upload_calls", meta.uploads, "count"},
      {"meta.upload_bytes", meta.upload_bytes, "bytes"},
      {"meta.download_calls", meta.downloads, "count"},
      {"meta.list_calls_per_op", Ratio(meta.lists, ops), "count/op"},
      {"opt.select_calls", s.tally.select_calls.load() - select_calls0, "count"},
      {"opt.select_ms", (s.tally.select_ns.load() - select_ns0) / 1e6, "ms"},
      {"cache.hits", reg["cyrus_chunk_cache_hits_total"], "count"},
      {"cache.misses", reg["cyrus_chunk_cache_misses_total"], "count"},
      {"cache.evictions", reg["cyrus_chunk_cache_evictions_total"], "count"},
      {"cache.hit_ratio", Ratio(reg["cyrus_chunk_cache_hits_total"], cache_lookups), "ratio"},
      {"readahead.issued", reg["cyrus_readahead_issued_total"], "count"},
      {"readahead.completed", reg["cyrus_readahead_completed_total"], "count"},
      {"readahead.cancelled", reg["cyrus_readahead_cancelled_total"], "count"},
      {"pipeline.stalls", reg["cyrus_pipeline_stalls_total"], "count"},
      {"pipeline.stall_ms", reg["cyrus_pipeline_stall_ms"], "ms"},
      {"bufpool.hit_ratio", Ratio(reg["cyrus_bufpool_hits_total"], pool_checkouts), "ratio"},
      {"dedup.chunk_hit_ratio", Ratio(double(s.put_dedup_chunks), double(s.put_chunks)),
       "ratio"},
      {"client.self_ms", ClientSelfMs(spans, s.first_measured_op), "ms"},
      {"trace.overhead_pct", 100 * (Ratio(traced_total, plain_total) - 1), "%"},
      {"trace.ops", ops, "count"},
  };
  const uint64_t failed = s.failed + plain_failed;
  const bool correct = failed == 0 && check.ok() && r.decode_ok;
  PrintResult(correct, s.attempted + plain_attempted, failed, layers);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      args->tiny = value == "tiny";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cyrus

int main(int argc, char** argv) {
  using namespace cyrus::perfbench;
  Args args;
  args.host_at_start = ReadHostTicks();
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: %s --workload bulk|sync|stream --seed N --seconds S "
                 "--trace 0|1 [--scale tiny] [--spans-out FILE]\n", argv[0]);
    return 2;
  }
  auto workload = MakeWorkload(args.workload, args.seed, args.tiny);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return args.trace ? RunTraced(args, *workload) : RunEndToEnd(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
