// Substrate microbenchmarks (google-benchmark): throughput of the hot
// primitives under the CYRUS pipeline - SHA-1 content addressing, Rabin
// chunking, consistent-hash placement, and Algorithm 1's LP machinery.
// Not a paper figure; used to confirm the paper's premise that client-side
// computation never rivals WAN transfer time (§7.1 extends this to coding;
// these cover everything else on the Put/Get path).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/chunker/chunker.h"
#include "src/core/hash_ring.h"
#include "src/crypto/sha1.h"
#include "src/opt/download_selector.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace {

using namespace cyrus;

Bytes MakeData(size_t size, uint64_t seed = 11) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// The dispatched hasher (SHA-NI where the CPU has it) against the portable
// scalar compression function it replaces, over the same whole blocks.
void BM_Sha1(benchmark::State& state) {
  const Bytes data = MakeData(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * data.size());
  state.SetLabel(Sha1ShaNiSupported() ? "dispatched: sha-ni" : "dispatched: scalar");
}
BENCHMARK(BM_Sha1)->Arg(64 << 10)->Arg(4 << 20)->Unit(benchmark::kMicrosecond);

void BM_Sha1Scalar(benchmark::State& state) {
  const Bytes data = MakeData(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
    Sha1BlocksScalar(h, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * data.size());
}
BENCHMARK(BM_Sha1Scalar)->Arg(64 << 10)->Arg(4 << 20)->Unit(benchmark::kMicrosecond);

// Sha1::HashMany over a batch of independent inputs (a chunk's shares, a
// group of chunk ids), in aggregate bytes per second. The label names the
// path the batch takes: the 8-lane kernel needs AVX-512VL and at least
// kSha1MinLanes inputs, and anything less is the single-stream hasher.
void RunSha1Many(benchmark::State& state, const std::vector<ByteSpan>& inputs) {
  std::vector<Sha1Digest> out(inputs.size());
  size_t bytes = 0;
  for (ByteSpan input : inputs) {
    bytes += input.size();
  }
  for (auto _ : state) {
    Sha1::HashMany(inputs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  const bool lanes = Sha1MultiLaneSupported() && inputs.size() >= kSha1MinLanes;
  state.SetLabel(lanes                  ? "dispatched: avx512vl x8"
                 : Sha1ShaNiSupported() ? "dispatched: sha-ni"
                                        : "dispatched: scalar");
}

void BM_Sha1Many(benchmark::State& state) {
  constexpr size_t kInput = 2 << 20;
  const size_t count = static_cast<size_t>(state.range(0));
  const Bytes data = MakeData(count * kInput);
  std::vector<ByteSpan> inputs;
  for (size_t i = 0; i < count; ++i) {
    inputs.push_back(ByteSpan(data).subspan(i * kInput, kInput));
  }
  RunSha1Many(state, inputs);
}
BENCHMARK(BM_Sha1Many)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Unit(
    benchmark::kMicrosecond);

// Chunk-id shaped: 24 inputs from 100 B to 2 MiB, so lanes refill at
// different steps and the batch ends on the single-stream path.
void BM_Sha1ManyMixed(benchmark::State& state) {
  Rng rng(13);
  std::vector<size_t> lengths;
  size_t total = 0;
  for (int i = 0; i < 24; ++i) {
    lengths.push_back(100 + rng.NextBelow(2 << 20));
    total += lengths.back();
  }
  const Bytes data = MakeData(total);
  std::vector<ByteSpan> inputs;
  size_t offset = 0;
  for (size_t len : lengths) {
    inputs.push_back(ByteSpan(data).subspan(offset, len));
    offset += len;
  }
  RunSha1Many(state, inputs);
}
BENCHMARK(BM_Sha1ManyMixed)->Unit(benchmark::kMicrosecond);

// Get-side share verification over bulk-shaped chunks: the default chunker
// cuts four seeded 64 MiB files, and each chunk brings its two share-sized
// halves (t = 2), in process CPU time per file byte. grouping:0 hashes the
// shares chunk by chunk with Hash, the single-chunk read; grouping:1 hashes
// each file's chunks in file-order groups of four with one HashMany per
// group; grouping:2 sorts each file's chunks by size, largest first, before
// cutting the groups, as a whole-file Get does.
void BM_VerifyShares(benchmark::State& state) {
  constexpr size_t kFile = 64 << 20;
  constexpr size_t kFiles = 4;
  constexpr size_t kGroup = 4;
  const int64_t grouping = state.range(0);
  const Chunker chunker = Chunker::Create(ChunkerOptions{}).value();
  const Bytes data = MakeData(kFile);
  std::vector<std::vector<ByteSpan>> batches;  // one Hash or HashMany pass each
  for (uint64_t seed = 1; seed <= kFiles; ++seed) {
    std::vector<ChunkSpan> cuts = chunker.Split(MakeData(kFile, seed));
    if (grouping == 2) {
      std::stable_sort(cuts.begin(), cuts.end(),
                       [](const ChunkSpan& a, const ChunkSpan& b) { return a.size > b.size; });
    }
    const size_t group = grouping == 0 ? 1 : kGroup;
    for (size_t first = 0; first < cuts.size(); first += group) {
      std::vector<ByteSpan>& batch = batches.emplace_back();
      for (size_t c = first; c < std::min(first + group, cuts.size()); ++c) {
        const ByteSpan chunk = ByteSpan(data).subspan(cuts[c].offset, cuts[c].size);
        batch.push_back(chunk.first(chunk.size() / 2));
        batch.push_back(chunk.subspan(chunk.size() / 2));
      }
    }
  }
  std::vector<Sha1Digest> out(2 * kGroup);
  for (auto _ : state) {
    for (const std::vector<ByteSpan>& batch : batches) {
      if (grouping == 0) {
        for (ByteSpan share : batch) {
          benchmark::DoNotOptimize(Sha1::Hash(share));
        }
      } else {
        Sha1::HashMany(batch, std::span<Sha1Digest>(out).first(batch.size()));
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      }
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kFiles * kFile));
  const bool lanes = grouping != 0 && Sha1MultiLaneSupported();
  state.SetLabel(lanes                  ? "dispatched: avx512vl x8"
                 : Sha1ShaNiSupported() ? "dispatched: sha-ni"
                                        : "dispatched: scalar");
}
BENCHMARK(BM_VerifyShares)
    ->ArgName("grouping")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Chunker::Split over 16 MiB at a given average chunk size (min = avg/4,
// max = 4 x avg); the 4 MiB row is the production default.
void BM_RabinChunking(benchmark::State& state) {
  const Bytes data = MakeData(16 << 20);
  ChunkerOptions options;
  options.modulus = static_cast<uint64_t>(state.range(0));
  if (options.modulus != ChunkerOptions{}.modulus) {
    options.min_chunk_size = options.modulus / 4;
    options.max_chunk_size = options.modulus * 4;
  }
  auto chunker = Chunker::Create(options);
  size_t chunks = 0;
  for (auto _ : state) {
    const std::vector<ChunkSpan> spans = chunker->Split(data);
    chunks = spans.size();
    benchmark::DoNotOptimize(spans.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * data.size());
  state.counters["chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_RabinChunking)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond);

// Chunker::Split(data, pool) at the default options over four 64 MiB
// random buffers, the bulk workload's file size. CPU time is the whole
// process's, so bytes_per_second is per CPU-second: the 4-thread row
// against the 1-thread row (which splits inline) is what cutting in
// segments costs, mostly the chunk straddling each segment end, scanned
// twice. That cost depends on where the cuts fall, so one buffer is not
// enough to show it.
void BM_RabinChunkingPooled(benchmark::State& state) {
  std::vector<Bytes> buffers;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    buffers.push_back(MakeData(64 << 20, seed));
  }
  auto chunker = Chunker::Create(ChunkerOptions{});
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  size_t chunks = 0;
  for (auto _ : state) {
    chunks = 0;
    for (const Bytes& data : buffers) {
      const std::vector<ChunkSpan> spans = chunker->Split(data, &pool);
      chunks += spans.size();
      benchmark::DoNotOptimize(spans.data());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * buffers.size() *
                          buffers.front().size());
  state.counters["chunks"] = static_cast<double>(chunks);
  state.counters["segments"] =
      static_cast<double>(chunker->Segments(buffers.front().size(), &pool));
}
BENCHMARK(BM_RabinChunkingPooled)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_HashRingSelect(benchmark::State& state) {
  HashRing ring;
  for (int i = 0; i < 8; ++i) {
    (void)ring.AddCsp(i, StrCat("csp", i), -1);
  }
  uint64_t counter = 0;
  for (auto _ : state) {
    const Sha1Digest id = Sha1::Hash(StrCat("chunk-", counter++));
    benchmark::DoNotOptimize(ring.SelectCsps(id, 4));
  }
}
BENCHMARK(BM_HashRingSelect);

// Row kinds: ring = 0 puts every chunk on all 7 CSPs (4 fast, 3 slow) with
// 0.5-4 MB shares; ring = 1 is the perfbench shape, 5 CSPs (3 x 15 MB/s,
// 2 x 2 MB/s) with each chunk on 4 of them and 16-600 KB shares.
void BM_DownloadSelection(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  const bool ring = state.range(1) != 0;
  Rng rng(12);
  DownloadProblem problem;
  problem.t = 2;
  if (ring) {
    problem.csp_bandwidth = {15e6, 15e6, 15e6, 2e6, 2e6};
  } else {
    for (int c = 0; c < 7; ++c) {
      problem.csp_bandwidth.push_back(c < 4 ? 15e6 : 2e6);
    }
  }
  for (size_t r = 0; r < chunks; ++r) {
    DownloadChunk chunk;
    if (ring) {
      chunk.share_bytes = rng.NextDouble(16e3, 600e3);
      const int missing = static_cast<int>(rng.NextBelow(5));
      for (int c = 0; c < 5; ++c) {
        if (c != missing) {
          chunk.stored_at.push_back(c);
        }
      }
    } else {
      chunk.share_bytes = rng.NextDouble(0.5e6, 4e6);
      chunk.stored_at = {0, 1, 2, 3, 4, 5, 6};
    }
    problem.chunks.push_back(chunk);
  }
  OptimalDownloadSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(problem));
  }
  state.counters["chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_DownloadSelection)
    ->ArgNames({"chunks", "ring"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({13, 0})
    ->Args({64, 1})
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
