// Tests for the aligned reusable buffer pool (src/util/buffer_pool.h):
// alignment and capacity contracts, reuse-after-release, concurrent
// checkout from thread-pool workers (selected into the TSan tier), and the
// end-to-end regression that a pooled Put uploads share objects
// byte-identical to the allocating SecretSharingCodec::Encode path.
#include "src/util/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/chunker/chunker.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/rs/secret_sharing.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

TEST(BufferPoolTest, BuffersAreAlignedAndRoundedToGranularity) {
  BufferPool pool;
  for (const size_t want : {size_t{1}, size_t{31}, size_t{4096}, size_t{4097},
                            size_t{1 << 20}}) {
    PooledBuffer buffer = pool.Acquire(want);
    ASSERT_TRUE(buffer);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 32, 0u)
        << "capacity " << buffer.capacity();
    EXPECT_GE(buffer.capacity(), want);
    EXPECT_EQ(buffer.capacity() % 4096, 0u);
    EXPECT_EQ(buffer.span(want).size(), want);
  }
}

TEST(BufferPoolTest, CustomAlignmentIsHonored) {
  BufferPool::Options options;
  options.alignment = 64;
  BufferPool pool(options);
  PooledBuffer buffer = pool.Acquire(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u);
}

TEST(BufferPoolTest, ReleasedBufferIsReusedByTheNextAcquire) {
  BufferPool pool;
  uint8_t* first = nullptr;
  {
    PooledBuffer buffer = pool.Acquire(1000);
    first = buffer.data();
  }  // released back to the pool here
  PooledBuffer again = pool.Acquire(1000);
  EXPECT_EQ(again.data(), first);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
}

TEST(BufferPoolTest, TightestFitWinsAndLargeBuffersStayParked) {
  BufferPool pool;
  uint8_t* small = nullptr;
  uint8_t* large = nullptr;
  {
    PooledBuffer a = pool.Acquire(4096);
    PooledBuffer b = pool.Acquire(64 * 1024);
    small = a.data();
    large = b.data();
  }
  // A small request must take the 4 KB buffer, not burn the 64 KB one.
  PooledBuffer c = pool.Acquire(100);
  EXPECT_EQ(c.data(), small);
  PooledBuffer d = pool.Acquire(32 * 1024);
  EXPECT_EQ(d.data(), large);
}

TEST(BufferPoolTest, MoveTransfersOwnershipWithoutDoubleRelease) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(100);
  uint8_t* data = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting moved-from state
  b.Release();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().free_buffers, 1u);
}

TEST(BufferPoolTest, FreeListIsBoundedByMaxFreeBuffers) {
  BufferPool::Options options;
  options.max_free_buffers = 2;
  BufferPool pool(options);
  {
    std::vector<PooledBuffer> buffers;
    for (int i = 0; i < 5; ++i) {
      buffers.push_back(pool.Acquire(4096));
    }
  }  // all five released; only two may be retained
  EXPECT_EQ(pool.stats().free_buffers, 2u);
}

// Concurrent checkout/release from thread-pool workers; runs under the
// --tsan tier to prove the free-list locking.
TEST(BufferPoolTest, ConcurrentCheckoutFromThreadPoolWorkers) {
  BufferPool pool;
  ThreadPool workers(4);
  std::atomic<uint64_t> touched{0};
  ThreadPool::TaskGroup group;
  for (int task = 0; task < 32; ++task) {
    workers.Submit(group, [&pool, &touched, task] {
      Rng rng(0xC0FFEE + static_cast<uint64_t>(task));
      for (int i = 0; i < 50; ++i) {
        const size_t want = 1 + rng.NextBelow(32 * 1024);
        PooledBuffer buffer = pool.Acquire(want);
        MutableByteSpan span = buffer.span(want);
        // Touch first and last byte so TSan sees the memory handoff.
        span.front() = static_cast<uint8_t>(task);
        span.back() = static_cast<uint8_t>(i);
        touched.fetch_add(span.front() + span.back(),
                          std::memory_order_relaxed);
      }
    });
  }
  workers.WaitGroup(group);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// --- End-to-end regression: pooled Put == allocating encode, byte for byte

constexpr char kPoolKey[] = "pool regression key";

struct MiniCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

MiniCloud MakeCloud() {
  MiniCloud cloud;
  CyrusConfig config;
  config.client_id = "pool-device";
  config.key_string = kPoolKey;
  config.t = 2;
  config.meta_t = 2;
  config.epsilon = 1e-4;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (int i = 0; i < 5; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("pool-csp", i);
    cloud.csps.push_back(std::make_shared<SimulatedCsp>(o));
    CspProfile profile;
    profile.rtt_ms = 50 + 10.0 * i;
    profile.download_bytes_per_sec = 8e6;
    profile.upload_bytes_per_sec = 4e6;
    auto added =
        cloud.client->AddCsp(cloud.csps.back(), profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

TEST(BufferPoolTest, PooledPutUploadsIdenticalBytesToPrePoolPath) {
  Rng rng(0x900DBEEF);
  Bytes content(100 * 1024);
  for (auto& b : content) {
    b = static_cast<uint8_t>(rng.Next());
  }
  MiniCloud cloud = MakeCloud();
  auto put = cloud.client->Put("regression.bin", content);
  ASSERT_TRUE(put.ok()) << put.status();

  // Re-derive every chunk's shares through the allocate-per-chunk Encode()
  // (the pre-pool upload path) and compare them with the stored objects.
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  size_t compared = 0;
  for (const ChunkSpan& span : chunker->Split(content)) {
    const ByteSpan chunk = ByteSpan(content).subspan(span.offset, span.size);
    const Sha1Digest id = Sha1::Hash(chunk);
    const ChunkEntry* entry = cloud.client->chunk_table().Find(id);
    ASSERT_NE(entry, nullptr);
    auto codec = SecretSharingCodec::Create(kPoolKey, entry->t, entry->n);
    ASSERT_TRUE(codec.ok()) << codec.status();
    auto shares = codec->Encode(chunk);
    ASSERT_TRUE(shares.ok()) << shares.status();
    for (const ChunkShare& share : entry->shares) {
      auto stored = cloud.csps[share.csp]->Download(
          ShareName(id, share.share_index, entry->t));
      ASSERT_TRUE(stored.ok()) << stored.status();
      EXPECT_EQ(*stored, (*shares)[share.share_index].data);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);

  auto get = cloud.client->Get("regression.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

}  // namespace
}  // namespace cyrus
