// Allocation budget of the read path: a Get's shares are allocated once, by
// the connector, and moved into the decoder. This binary replaces global
// operator new/delete to count heap allocations of at least 64 KiB (share-
// and file-sized buffers), so it cannot share a binary with other suites.
//
// - A clean t = 2 ChunkReader::Read over SimulatedCsps allocates exactly
//   t x ShareSize bytes: the connector's copies of the two shares.
// - A four-chunk ReadGroup allocates exactly the sum of its chunks'
//   t x ShareSize.
// - A whole-file CyrusClient::Get allocates at most the file length plus the
//   downloaded share bytes, plus 1%.
//
// A copy of any consumed share (for example `*std::move(result)` binding to
// the const lvalue dereference of Result<Bytes>) doubles the share term.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/cloud/simulated_csp.h"
#include "src/core/chunk_reader.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace {

constexpr size_t kLargeBytes = 64 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_large_bytes{0};
std::atomic<uint64_t> g_large_count{0};

void NoteAllocation(size_t size) {
  if (size >= kLargeBytes && g_counting.load(std::memory_order_relaxed)) {
    g_large_bytes.fetch_add(size, std::memory_order_relaxed);
    g_large_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(size_t size) {
  NoteAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(size_t size, std::align_val_t align) {
  NoteAllocation(size);
  const size_t alignment = static_cast<size_t>(align);
  const size_t rounded = (std::max<size_t>(size, 1) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, std::align_val_t align) { return AllocateAligned(size, align); }
void* operator new[](size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace cyrus {
namespace {

// Counts large allocations made, on any thread, while it is alive.
class LargeAllocations {
 public:
  LargeAllocations() {
    g_large_bytes = 0;
    g_large_count = 0;
    g_counting = true;
  }
  ~LargeAllocations() { g_counting = false; }

  uint64_t bytes() const { return g_large_bytes.load(); }
  uint64_t count() const { return g_large_count.load(); }
};

constexpr char kKey[] = "read alloc key";
constexpr uint32_t kT = 2;
constexpr uint32_t kN = 5;

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// Chunks dispersed over five in-memory CSPs, share i of every chunk at CSP
// i, each share well above the 64 KiB counting threshold.
struct ReaderBed {
  struct StoredChunk {
    Bytes content;
    ChunkRecord record;
    std::vector<ShareLocation> locations;
  };

  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  CspRegistry registry;
  AvailabilityMonitor monitor;
  CspCalls calls{&registry, &monitor, RetryOptions{}, nullptr, nullptr};
  BufferPool buffers;
  ThreadPool pool{4};
  std::unique_ptr<ChunkReader> reader;
  std::vector<StoredChunk> chunks;

  explicit ReaderBed(size_t chunk_count) {
    for (uint32_t i = 0; i < kN; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("alloc-csp", i);
      csps.push_back(std::make_shared<SimulatedCsp>(o));
      EXPECT_TRUE(csps.back()->Authenticate(Credentials{"token"}).ok());
      registry.Add(csps.back(), CspProfile{});
    }
    ChunkReaderContext context;
    context.registry = &registry;
    context.calls = &calls;
    context.monitor = &monitor;
    context.pool = &pool;
    context.buffers = &buffers;
    context.now = [] { return 0.0; };
    context.chunk_key = [](const ChunkRecord&) -> Result<std::string> {
      return std::string(kKey);
    };
    context.on_integrity_failure = [](int) {};
    reader = std::make_unique<ChunkReader>(std::move(context));

    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    EXPECT_TRUE(codec.ok()) << codec.status();
    for (size_t c = 0; c < chunk_count; ++c) {
      StoredChunk& chunk = chunks.emplace_back();
      chunk.content = RandomContent(256 * 1024 + 7000 * c, 0xA110C + c);
      auto shares = codec->Encode(chunk.content);
      EXPECT_TRUE(shares.ok()) << shares.status();
      chunk.record = ChunkRecord{Sha1::Hash(chunk.content), 0, chunk.content.size(), kT, kN,
                                 false, {}, {}};
      for (uint32_t i = 0; i < kN; ++i) {
        const std::string object = ShareName(chunk.record.id, i, kT);
        EXPECT_TRUE(csps[i]->Upload(object, (*shares)[i].data).ok());
        chunk.locations.push_back(ShareLocation{chunk.record.id, i, static_cast<int32_t>(i)});
        chunk.record.SetShareDigest(i, Sha1::Hash((*shares)[i].data));
      }
    }
  }

  // Reads every chunk as one group from CSPs 0 and 1 into `out`.
  void ReadAll(std::vector<Bytes>& out) {
    std::vector<ChunkReadResult> results(chunks.size());
    std::vector<ChunkReadRequest> group(chunks.size());
    for (size_t c = 0; c < chunks.size(); ++c) {
      group[c].chunk = &chunks[c].record;
      group[c].locations = &chunks[c].locations;
      group[c].options.preferred = {0, 1};
      group[c].dst = MutableByteSpan(out[c]);
      group[c].result = &results[c];
    }
    reader->ReadGroup(group);
    for (size_t c = 0; c < chunks.size(); ++c) {
      ASSERT_TRUE(group[c].status.ok()) << group[c].status;
      ASSERT_EQ(results[c].shares_downloaded, kT);
      ASSERT_EQ(out[c], chunks[c].content);
    }
  }
};

TEST(ReadAllocTest, CleanReadAllocatesOnlyTheConnectorsShareCopies) {
  ReaderBed bed(/*chunk_count=*/1);
  const ReaderBed::StoredChunk& chunk = bed.chunks[0];
  Bytes out(chunk.content.size());
  ChunkReadOptions options;
  options.preferred = {0, 1};
  // The first read starts the pool's workers and registers metrics.
  ChunkReadResult warm;
  ASSERT_TRUE(bed.reader->Read(chunk.record, chunk.locations, options, MutableByteSpan(out),
                               warm)
                  .ok());

  uint64_t allocated = 0;
  uint64_t allocations = 0;
  ChunkReadResult read;
  {
    LargeAllocations counter;
    ASSERT_TRUE(bed.reader->Read(chunk.record, chunk.locations, options,
                                 MutableByteSpan(out), read)
                    .ok());
    allocated = counter.bytes();
    allocations = counter.count();
  }
  EXPECT_EQ(out, chunk.content);
  EXPECT_EQ(read.shares_downloaded, kT);
  EXPECT_EQ(allocated, kT * ShareSize(chunk.content.size(), kT));
  EXPECT_EQ(allocations, kT);
}

TEST(ReadAllocTest, GroupReadAllocatesOnlyTheConnectorsShareCopies) {
  ReaderBed bed(/*chunk_count=*/4);
  std::vector<Bytes> out;
  uint64_t want = 0;
  for (const auto& chunk : bed.chunks) {
    out.emplace_back(chunk.content.size());
    want += kT * ShareSize(chunk.content.size(), kT);
  }
  bed.ReadAll(out);  // warm-up, as above

  uint64_t allocated = 0;
  {
    LargeAllocations counter;
    bed.ReadAll(out);
    allocated = counter.bytes();
  }
  EXPECT_EQ(allocated, want);
}

TEST(ReadAllocTest, WholeFileGetAllocatesTheFileAndTheDownloadedSharesOnce) {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  CyrusConfig config;
  config.client_id = "alloc-device";
  config.key_string = kKey;
  config.t = kT;
  config.epsilon = 1e-4;
  config.default_failure_prob = 0.01;
  config.cluster_aware = false;
  auto client = CyrusClient::Create(config);
  ASSERT_TRUE(client.ok()) << client.status();
  for (uint32_t i = 0; i < kN; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("alloc-csp", i);
    csps.push_back(std::make_shared<SimulatedCsp>(o));
    ASSERT_TRUE((*client)->AddCsp(csps.back(), CspProfile{}, Credentials{"token"}).ok());
  }
  const Bytes content = RandomContent(8 * 1024 * 1024, 42);
  ASSERT_TRUE((*client)->Put("big.bin", content).ok());
  ASSERT_TRUE((*client)->Get("big.bin").ok());  // warm-up, as above

  uint64_t allocated = 0;
  Result<GetResult> got = InternalError("not read");
  {
    LargeAllocations counter;
    got = (*client)->Get("big.bin");
    allocated = counter.bytes();
  }
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->content, content);
  const uint64_t shares = got->transfer.TotalBytes(TransferKind::kGet);
  EXPECT_GE(shares, content.size());  // t shares of each chunk, at least
  const uint64_t budget = content.size() + shares;
  EXPECT_LE(allocated, budget + budget / 100)
      << "file " << content.size() << " B, downloaded shares " << shares << " B";
}

}  // namespace
}  // namespace cyrus
