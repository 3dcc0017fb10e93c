// Streaming tier: the byte-budgeted ARC chunk cache (budget enforcement,
// ghost-list promotion, scan resistance, concurrent readers) and the
// range-read path built on it - GetRange correctness, cache reuse,
// sequential readahead, invalidation on overwrite/delete, and whole-file
// Get agreeing with a full-span GetRange.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/chunker/chunker.h"
#include "src/cloud/metrics_connector.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/chunk_cache.h"
#include "src/core/client.h"
#include "src/crypto/sha1.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

Sha1Digest IdOf(uint64_t seed) {
  return Sha1::Hash(ByteSpan(RandomContent(8, seed)));
}

std::shared_ptr<const Bytes> Block(size_t size, uint8_t fill) {
  return std::make_shared<const Bytes>(size, fill);
}

// --- ARC cache unit tests ------------------------------------------------

TEST(ChunkCacheTest, PutGetPeekRoundTrip) {
  obs::MetricsRegistry metrics;
  ChunkCache cache(ChunkCacheOptions{1 << 20, 1, &metrics});
  const Sha1Digest id = IdOf(1);
  EXPECT_EQ(cache.Get(id), nullptr);
  cache.Put(id, Block(1024, 0xAB));
  auto hit = cache.Get(id);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 1024u);
  EXPECT_EQ((*hit)[0], 0xAB);

  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes, 1024u);

  // Peek neither counts nor promotes.
  EXPECT_NE(cache.Peek(id), nullptr);
  EXPECT_EQ(cache.Peek(IdOf(2)), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ChunkCacheTest, ByteBudgetIsEnforced) {
  obs::MetricsRegistry metrics;
  constexpr uint64_t kBudget = 64 * 1024;
  ChunkCache cache(ChunkCacheOptions{kBudget, 1, &metrics});
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Put(IdOf(i), Block(4096, static_cast<uint8_t>(i)));
    EXPECT_LE(cache.stats().bytes, kBudget) << "after insert " << i;
  }
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_EQ(stats.entries, kBudget / 4096);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.ghost_entries, 0u);  // evictees remembered, not forgotten
}

TEST(ChunkCacheTest, GhostHitReentersAsFrequent) {
  obs::MetricsRegistry metrics;
  constexpr uint64_t kBudget = 16 * 1024;
  ChunkCache cache(ChunkCacheOptions{kBudget, 1, &metrics});
  // Fill past budget so the earliest ids are evicted into the B1 ghosts.
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Put(IdOf(i), Block(4096, 1));
  }
  ASSERT_EQ(cache.Get(IdOf(0)), nullptr);  // evicted
  ASSERT_GT(cache.stats().ghost_entries, 0u);

  // Re-inserting a ghost is ARC's "seen twice" signal: the entry must come
  // back on the frequency list, not as a fresh one-timer.
  const uint64_t t2_before = cache.stats().t2_bytes;
  cache.Put(IdOf(0), Block(4096, 1));
  EXPECT_NE(cache.Get(IdOf(0)), nullptr);
  EXPECT_GE(cache.stats().t2_bytes, t2_before + 4096);
}

TEST(ChunkCacheTest, SequentialScanDoesNotFlushHotSet) {
  obs::MetricsRegistry metrics;
  constexpr uint64_t kBudget = 32 * 1024;
  ChunkCache cache(ChunkCacheOptions{kBudget, 1, &metrics});
  // Build a hot set: inserted and re-read, so it lives in T2.
  std::vector<Sha1Digest> hot;
  for (uint64_t i = 0; i < 4; ++i) {
    hot.push_back(IdOf(1000 + i));
    cache.Put(hot.back(), Block(4096, 2));
  }
  for (const Sha1Digest& id : hot) {
    ASSERT_NE(cache.Get(id), nullptr);
  }
  // A one-shot scan 4x the budget: each id seen exactly once.
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Put(IdOf(2000 + i), Block(4096, 3));
  }
  // The scan churns through T1; the re-read set survives in T2.
  size_t survivors = 0;
  for (const Sha1Digest& id : hot) {
    survivors += cache.Peek(id) != nullptr ? 1 : 0;
  }
  EXPECT_GE(survivors, hot.size() / 2)
      << "scan flushed the frequently re-read chunks";
}

TEST(ChunkCacheTest, InvalidateDropsResidentAndGhost) {
  obs::MetricsRegistry metrics;
  ChunkCache cache(ChunkCacheOptions{1 << 20, 2, &metrics});
  const Sha1Digest id = IdOf(7);
  cache.Put(id, Block(2048, 4));
  ASSERT_NE(cache.Peek(id), nullptr);
  cache.Invalidate(id);
  EXPECT_EQ(cache.Peek(id), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.Invalidate(id);  // absent: no-op
}

// A prefetched entry that leaves the cache - evicted or invalidated -
// before any read used it is wasted readahead. A Get hit, a MarkUsed (a
// read that joined the prefetch) or a foreground re-insert uses it.
TEST(ChunkCacheTest, PrefetchedEntryLeavingUnreadIsWasted) {
  obs::MetricsRegistry metrics;
  constexpr uint64_t kBudget = 16 * 1024;
  ChunkCache cache(ChunkCacheOptions{kBudget, 1, &metrics});
  const Sha1Digest unread = IdOf(30), hit = IdOf(31), joined = IdOf(32);
  cache.Put(unread, Block(4096, 1), /*prefetched=*/true);
  cache.Put(hit, Block(4096, 1), /*prefetched=*/true);
  cache.Put(joined, Block(4096, 1), /*prefetched=*/true);
  ASSERT_NE(cache.Get(hit), nullptr);
  cache.MarkUsed(joined);
  // Eight foreground inserts push every one-timer out of T1.
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Put(IdOf(40 + i), Block(4096, 2));
  }
  ASSERT_EQ(cache.Peek(unread), nullptr);
  ASSERT_EQ(cache.Peek(joined), nullptr);
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);

  const Sha1Digest stale = IdOf(33), reput = IdOf(34);
  cache.Put(stale, Block(1024, 3), /*prefetched=*/true);
  cache.Put(reput, Block(1024, 3), /*prefetched=*/true);
  cache.Put(reput, Block(1024, 3));
  cache.Invalidate(stale);
  cache.Invalidate(reput);
  EXPECT_EQ(cache.stats().prefetch_wasted, 2u);
  EXPECT_EQ(metrics.GetCounter("cyrus_readahead_wasted_total")->value(), 2u);
}

TEST(ChunkCacheTest, OversizedEntriesAndZeroBudgetAreSkipped) {
  obs::MetricsRegistry metrics;
  ChunkCache small(ChunkCacheOptions{8 * 1024, 8, &metrics});
  small.Put(IdOf(8), Block(4096, 5));  // > per-shard budget of 1 KiB
  EXPECT_EQ(small.Peek(IdOf(8)), nullptr);

  ChunkCache off(ChunkCacheOptions{0, 1, &metrics});
  EXPECT_FALSE(off.enabled());
  off.Put(IdOf(9), Block(128, 6));
  EXPECT_EQ(off.Get(IdOf(9)), nullptr);
}

// TSan surface: readers, writers, and invalidators race over a small id
// set; the shared_ptr values must stay alive across concurrent eviction.
TEST(ChunkCacheTest, ConcurrentReadersWritersInvalidators) {
  obs::MetricsRegistry metrics;
  ChunkCache cache(ChunkCacheOptions{256 * 1024, 4, &metrics});
  constexpr int kIds = 32;
  std::vector<Sha1Digest> ids;
  for (int i = 0; i < kIds; ++i) {
    ids.push_back(IdOf(3000 + static_cast<uint64_t>(i)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        const Sha1Digest& id = ids[rng.Next() % kIds];
        switch (rng.Next() % 4) {
          case 0:
            cache.Put(id, Block(1024 + rng.Next() % 4096,
                                static_cast<uint8_t>(t)));
            break;
          case 3:
            cache.Invalidate(id);
            break;
          default:
            if (auto data = cache.Get(id); data != nullptr) {
              // Touch the bytes: must stay valid even if evicted now.
              volatile uint8_t sink = (*data)[data->size() - 1];
              (void)sink;
            }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.stats().bytes, cache.byte_budget());
}

// --- range reads through the client --------------------------------------

struct StreamCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

CyrusConfig StreamConfig(std::string client_id) {
  CyrusConfig config;
  config.key_string = "stream test key";
  config.client_id = std::move(client_id);
  config.t = 2;
  config.epsilon = 1e-3;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  config.readahead_chunks = 0;  // tests opt in explicitly
  return config;
}

StreamCloud MakeCloud(CyrusConfig config,
                      std::vector<std::shared_ptr<SimulatedCsp>> csps = {}) {
  StreamCloud cloud;
  if (csps.empty()) {
    for (int i = 0; i < 4; ++i) {
      cloud.csps.push_back(std::make_shared<SimulatedCsp>(
          SimulatedCspOptions{StrCat("csp", i)}));
    }
  } else {
    cloud.csps = std::move(csps);
  }
  cloud.client = std::move(CyrusClient::Create(std::move(config))).value();
  for (auto& csp : cloud.csps) {
    CspProfile profile;
    profile.download_bytes_per_sec = 2e6;
    profile.upload_bytes_per_sec = 1e6;
    EXPECT_TRUE(cloud.client->AddCsp(csp, profile, Credentials{"token"}).ok());
  }
  return cloud;
}

Bytes Slice(const Bytes& content, uint64_t offset, uint64_t len) {
  const uint64_t end = std::min<uint64_t>(content.size(), offset + len);
  return Bytes(content.begin() + static_cast<ptrdiff_t>(offset),
               content.begin() + static_cast<ptrdiff_t>(end));
}

TEST(RangeReadTest, RangesMatchFullContent) {
  StreamCloud cloud = MakeCloud(StreamConfig("ranger"));
  const Bytes content = RandomContent(64 * 1024, 11);
  ASSERT_TRUE(cloud.client->Put("r.bin", content).ok());

  const struct {
    uint64_t offset, len;
  } kRanges[] = {
      {0, 1},           {0, 64 * 1024},    {1, 100},
      {8191, 2},        {17000, 12345},    {64 * 1024 - 1, 1},
      {60000, 1 << 20},  // len clamped to the file end
  };
  for (const auto& range : kRanges) {
    auto got = cloud.client->GetRange("r.bin", range.offset, range.len);
    ASSERT_TRUE(got.ok()) << got.status() << " at " << range.offset;
    EXPECT_EQ(got->content, Slice(content, range.offset, range.len))
        << "offset " << range.offset << " len " << range.len;
    EXPECT_EQ(got->range_offset, range.offset);
    EXPECT_EQ(got->file_size, content.size());
  }

  // A range starting past the end is an InvalidArgument (the REST layer's
  // 416), not an empty success.
  auto past = cloud.client->GetRange("r.bin", content.size() + 1, 10);
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  // Zero-length at a valid offset is an empty slice.
  auto empty = cloud.client->GetRange("r.bin", 100, 0);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->content.empty());
}

TEST(RangeReadTest, RangeDownloadsOnlyCoveringChunks) {
  StreamCloud cloud = MakeCloud(StreamConfig("ranger"));
  const Bytes content = RandomContent(256 * 1024, 12);
  ASSERT_TRUE(cloud.client->Put("big.bin", content).ok());

  auto got = cloud.client->GetRange("big.bin", 100 * 1024, 1024);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content, Slice(content, 100 * 1024, 1024));
  // The test chunker averages ~1 KiB chunks, so a 1 KiB range covers a
  // handful of chunks out of ~256; downloaded shares must be a small
  // fraction of the 256 KiB file.
  EXPECT_LE(got->chunks_decoded, 16u);
  EXPECT_LT(got->transfer.TotalBytes(TransferKind::kGet), 32u * 1024);
}

TEST(RangeReadTest, RepeatRangeIsServedFromCache) {
  StreamCloud cloud = MakeCloud(StreamConfig("ranger"));
  const Bytes content = RandomContent(32 * 1024, 13);
  ASSERT_TRUE(cloud.client->Put("hot.bin", content).ok());

  auto cold = cloud.client->GetRange("hot.bin", 4096, 8192);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->chunks_decoded, 0u);

  auto warm = cloud.client->GetRange("hot.bin", 4096, 8192);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->content, cold->content);
  EXPECT_EQ(warm->chunks_decoded, 0u);
  EXPECT_GT(warm->chunks_from_cache, 0u);
  EXPECT_EQ(warm->transfer.TotalBytes(TransferKind::kGet), 0u);
}

TEST(RangeReadTest, SequentialReadsTriggerReadahead) {
  CyrusConfig config = StreamConfig("streamer");
  // 16 picks x the 128-byte minimum chunk always spans the next 2 KiB
  // step, so the third range below is fully prefetched even in the
  // worst-case chunking of this seed.
  config.readahead_chunks = 16;
  StreamCloud cloud = MakeCloud(std::move(config));
  const Bytes content = RandomContent(128 * 1024, 14);
  ASSERT_TRUE(cloud.client->Put("seq.bin", content).ok());

  // Two back-to-back ranges: the second is sequential (offset == previous
  // end), which arms the detector and prefetches the chunks after it.
  constexpr uint64_t kStep = 2 * 1024;
  auto first = cloud.client->GetRange("seq.bin", 0, kStep);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = cloud.client->GetRange("seq.bin", kStep, kStep);
  ASSERT_TRUE(second.ok()) << second.status();
  cloud.client->WaitForReadahead();

  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_GT(stats.issued, 0u);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.issued, stats.completed + stats.cancelled);

  // The third sequential range was prefetched: no foreground decodes.
  auto third = cloud.client->GetRange("seq.bin", 2 * kStep, kStep);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->content, Slice(content, 2 * kStep, kStep));
  EXPECT_EQ(third->chunks_decoded, 0u);
  EXPECT_GT(third->chunks_from_cache, 0u);
}

TEST(RangeReadTest, SeekCreditsInFlightReadahead) {
  CyrusConfig config = StreamConfig("seeker");
  config.readahead_chunks = 8;
  StreamCloud cloud = MakeCloud(std::move(config));
  const Bytes content = RandomContent(256 * 1024, 15);
  ASSERT_TRUE(cloud.client->Put("seek.bin", content).ok());

  constexpr uint64_t kStep = 8 * 1024;
  ASSERT_TRUE(cloud.client->GetRange("seek.bin", 0, kStep).ok());
  ASSERT_TRUE(cloud.client->GetRange("seek.bin", kStep, kStep).ok());
  // Seek far away: the stream generation bumps, and any still-queued
  // prefetch for the old position self-cancels instead of running.
  ASSERT_TRUE(cloud.client->GetRange("seek.bin", 200 * 1024, kStep).ok());
  cloud.client->WaitForReadahead();

  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_GT(stats.issued, 0u);
  // Every issued prefetch is accounted: stored or credited, never leaked.
  EXPECT_EQ(stats.issued, stats.completed + stats.cancelled);
}

// Index of the first chunk starting at or past `offset`: where the
// readahead window of a reader resuming at `offset` begins.
size_t FirstChunkAt(const std::vector<ChunkSpan>& chunks, uint64_t offset) {
  return static_cast<size_t>(
      std::partition_point(chunks.begin(), chunks.end(),
                           [offset](const ChunkSpan& chunk) { return chunk.offset < offset; }) -
      chunks.begin());
}

// The readahead window is anchored at the reader: however long a
// sequential scan runs, nothing is prefetched more than K records past
// where it resumes, and a reader that seeks every other read prefetches
// no more than its short runs justify.
TEST(RangeReadTest, ReadaheadStaysNearReader) {
  constexpr uint32_t kWindow = 4;
  CyrusConfig config = StreamConfig("window");
  config.readahead_chunks = kWindow;
  obs::MetricsRegistry scan_registry;  // readahead stats start from zero
  config.metrics = &scan_registry;
  StreamCloud cloud = MakeCloud(config);
  const Bytes content = RandomContent(96 * 1024, 23);
  ASSERT_TRUE(cloud.client->Put("win.bin", content).ok());
  const std::vector<ChunkSpan> chunks = Chunker::Create(config.chunker)->Split(content);
  std::vector<Sha1Digest> ids;
  for (const ChunkSpan& chunk : chunks) {
    ids.push_back(Sha1::Hash(ByteSpan(content).subspan(chunk.offset, chunk.size)));
  }

  // Half-chunk steps: a picker that skipped cached records and refilled
  // past them would queue K fresh chunks per read and run away.
  constexpr uint64_t kStep = 512;
  for (uint64_t offset = 0; offset < content.size(); offset += kStep) {
    auto got = cloud.client->GetRange("win.bin", offset, kStep);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->content, Slice(content, offset, kStep));
    cloud.client->WaitForReadahead();
    const size_t limit = FirstChunkAt(chunks, offset + kStep) + kWindow;
    for (size_t i = limit; i < chunks.size(); ++i) {
      ASSERT_TRUE(cloud.client->chunk_cache().Peek(ids[i]) == nullptr)
          << "chunk " << i << " cached with the reader at " << offset + kStep
          << "; the window ends before chunk " << limit;
    }
  }
  const CyrusClient::ReadaheadStats scan = cloud.client->readahead_stats();
  EXPECT_GT(scan.completed, 0u);
  EXPECT_EQ(scan.issued, scan.completed + scan.cancelled);

  // Seek, then read twice: each run is 2 x kRead bytes long, so its
  // window admits only the records starting within that many bytes of
  // the reader (at least one), however large readahead_chunks is.
  constexpr uint32_t kMaxWindow = 16;
  config.readahead_chunks = kMaxWindow;
  obs::MetricsRegistry seek_registry;
  config.metrics = &seek_registry;
  StreamCloud seeker = MakeCloud(config);
  ASSERT_TRUE(seeker.client->Put("win.bin", content).ok());
  constexpr uint64_t kRead = 300;
  Rng rng(23);
  uint64_t bound = 0;
  for (int run = 0; run < 40; ++run) {
    const uint64_t offset = 1 + rng.NextBelow(content.size() - 4 * kRead);
    ASSERT_TRUE(seeker.client->GetRange("win.bin", offset, kRead).ok());
    ASSERT_TRUE(seeker.client->GetRange("win.bin", offset + kRead, kRead).ok());
    const uint64_t resume = offset + 2 * kRead;
    const size_t first = FirstChunkAt(chunks, resume);
    const size_t ramp = FirstChunkAt(chunks, resume + 2 * kRead) - first;
    bound += std::min<size_t>({std::max<size_t>(ramp, 1), kMaxWindow, chunks.size() - first});
  }
  seeker.client->WaitForReadahead();
  const CyrusClient::ReadaheadStats seeks = seeker.client->readahead_stats();
  EXPECT_GT(seeks.issued, 0u);
  EXPECT_LE(seeks.issued, bound);
  EXPECT_EQ(seeks.issued, seeks.completed + seeks.cancelled);
}

std::vector<Sha1Digest> ChunkIds(const Bytes& content, const std::vector<ChunkSpan>& chunks) {
  std::vector<Sha1Digest> ids;
  for (const ChunkSpan& chunk : chunks) {
    ids.push_back(Sha1::Hash(ByteSpan(content).subspan(chunk.offset, chunk.size)));
  }
  return ids;
}

// Reads [start, start + len) of `name` in `step`-byte GetRanges, letting
// each read's prefetches land before the next.
void ReadRun(CyrusClient& client, const std::string& name, const Bytes& content,
             uint64_t start, uint64_t len, uint64_t step) {
  for (uint64_t offset = start; offset < start + len; offset += step) {
    auto got = client.GetRange(name, offset, step);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->content, Slice(content, offset, step));
    client.WaitForReadahead();
  }
}

// Once a stream's past runs all stopped kRun bytes in, readahead stops
// there too: later runs of that length never cache a chunk starting at or
// past their end, yet still prefetch inside the run.
TEST(RangeReadTest, FixedLengthRunsPrefetchNothingPastTheRun) {
  CyrusConfig config = StreamConfig("runs");
  config.readahead_chunks = 16;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  StreamCloud cloud = MakeCloud(config);
  const Bytes content = RandomContent(256 * 1024, 26);
  ASSERT_TRUE(cloud.client->Put("runs.bin", content).ok());
  const std::vector<ChunkSpan> chunks = Chunker::Create(config.chunker)->Split(content);
  const std::vector<Sha1Digest> ids = ChunkIds(content, chunks);

  constexpr uint64_t kRun = 4 * 1024;
  constexpr uint64_t kStep = 1024;
  constexpr int kHistory = 8;
  uint64_t issued_with_history = 0;
  for (int run = 0; run < kHistory + 4; ++run) {
    // Runs 20 KiB apart: each starts with a seek.
    const uint64_t start = 1 + static_cast<uint64_t>(run) * 20 * 1024;
    cloud.client->chunk_cache().Clear();
    if (run == kHistory) {
      issued_with_history = cloud.client->readahead_stats().issued;
    }
    ReadRun(*cloud.client, "runs.bin", content, start, kRun, kStep);
    if (run < kHistory) {
      continue;  // these runs fill the history
    }
    for (size_t i = FirstChunkAt(chunks, start + kRun); i < chunks.size(); ++i) {
      ASSERT_TRUE(cloud.client->chunk_cache().Peek(ids[i]) == nullptr)
          << "run " << run << " cached chunk " << i << " at " << chunks[i].offset
          << ", past its end at " << start + kRun;
    }
  }
  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_GT(stats.issued, issued_with_history);
  EXPECT_EQ(stats.issued, stats.completed + stats.cancelled);
}

// A reader that outruns every past run gets the ramp back: with the run
// long enough, the window fills all readahead_chunks records.
TEST(RangeReadTest, LongRunAfterShortRunsRampsToTheFullWindow) {
  constexpr uint32_t kWindow = 4;
  CyrusConfig config = StreamConfig("outrun");
  config.readahead_chunks = kWindow;
  StreamCloud cloud = MakeCloud(config);
  const Bytes content = RandomContent(192 * 1024, 27);
  ASSERT_TRUE(cloud.client->Put("outrun.bin", content).ok());
  const std::vector<ChunkSpan> chunks = Chunker::Create(config.chunker)->Split(content);
  const std::vector<Sha1Digest> ids = ChunkIds(content, chunks);

  constexpr uint64_t kStep = 1024;
  for (int run = 0; run < 8; ++run) {
    ReadRun(*cloud.client, "outrun.bin", content,
            1 + static_cast<uint64_t>(run) * 8 * 1024, 2 * kStep, kStep);
  }
  cloud.client->chunk_cache().Clear();
  constexpr uint64_t kLongStart = 96 * 1024 + 1;
  constexpr uint64_t kLongRun = 24 * kStep;
  ReadRun(*cloud.client, "outrun.bin", content, kLongStart, kLongRun, kStep);

  const size_t first = FirstChunkAt(chunks, kLongStart + kLongRun);
  ASSERT_LT(first + kWindow, chunks.size());
  for (size_t i = first; i < first + kWindow; ++i) {
    EXPECT_TRUE(cloud.client->chunk_cache().Peek(ids[i]) != nullptr)
        << "window record " << i - first << " not prefetched";
  }
  EXPECT_TRUE(cloud.client->chunk_cache().Peek(ids[first + kWindow]) == nullptr);
}

// A seek prefetches nothing, so a reader that seeks on every read never
// triggers readahead, however long its history gets.
TEST(RangeReadTest, SeekEveryReadPrefetchesNothing) {
  CyrusConfig config = StreamConfig("hopper");
  config.readahead_chunks = 16;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  StreamCloud cloud = MakeCloud(config);
  const Bytes content = RandomContent(256 * 1024, 28);
  ASSERT_TRUE(cloud.client->Put("hop.bin", content).ok());

  constexpr uint64_t kRead = 8 * 1024;
  for (uint64_t i = 0; i < 24; ++i) {
    // Backwards from the end: no read starts where the last one stopped.
    const uint64_t offset = content.size() - (i + 1) * 10 * 1024;
    auto got = cloud.client->GetRange("hop.bin", offset, kRead);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->content, Slice(content, offset, kRead));
  }
  cloud.client->WaitForReadahead();
  EXPECT_EQ(cloud.client->readahead_stats().issued, 0u);
}

// Wasted readahead: a chunk prefetched and dropped before any read used
// it. A sequential read to the end of the file uses every prefetch; a
// reader that stops leaves the one chunk prefetched past it to go stale
// when the file is deleted.
TEST(RangeReadTest, ReadaheadWasteCountsPrefetchesNoReadUsed) {
  const Bytes content = RandomContent(64 * 1024, 29);
  constexpr uint64_t kStep = 1024;
  for (const bool to_the_end : {true, false}) {
    SCOPED_TRACE(to_the_end ? "read to the end" : "stop early");
    CyrusConfig config = StreamConfig("waster");
    config.readahead_chunks = to_the_end ? 4 : 1;
    obs::MetricsRegistry registry;
    config.metrics = &registry;
    StreamCloud cloud = MakeCloud(config);
    ASSERT_TRUE(cloud.client->Put("waste.bin", content).ok());
    ReadRun(*cloud.client, "waste.bin", content, 0,
            to_the_end ? content.size() : 8 * kStep, kStep);
    ASSERT_TRUE(cloud.client->Delete("waste.bin").ok());
    const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
    EXPECT_GT(stats.completed, 0u);
    EXPECT_EQ(stats.wasted, to_the_end ? 0u : 1u);
    EXPECT_EQ(registry.GetCounter("cyrus_readahead_wasted_total")->value(), stats.wasted);
  }
}

TEST(RangeReadTest, OverwriteAndDeleteInvalidateCachedChunks) {
  StreamCloud cloud = MakeCloud(StreamConfig("writer"));
  const Bytes v1 = RandomContent(32 * 1024, 16);
  ASSERT_TRUE(cloud.client->Put("mut.bin", v1).ok());
  ASSERT_TRUE(cloud.client->GetRange("mut.bin", 0, v1.size()).ok());
  ASSERT_GT(cloud.client->chunk_cache().stats().entries, 0u);

  // Overwrite with unrelated content: every v1-only chunk leaves the cache
  // (its refcount is gone; the bytes can never be served again).
  const Bytes v2 = RandomContent(32 * 1024, 17);
  ASSERT_TRUE(cloud.client->Put("mut.bin", v2).ok());
  EXPECT_EQ(cloud.client->chunk_cache().stats().entries, 0u);

  auto got = cloud.client->GetRange("mut.bin", 0, v2.size());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content, v2);
  ASSERT_GT(cloud.client->chunk_cache().stats().entries, 0u);

  // Delete drops the rest.
  ASSERT_TRUE(cloud.client->Delete("mut.bin").ok());
  EXPECT_EQ(cloud.client->chunk_cache().stats().entries, 0u);
}

TEST(RangeReadTest, DuplicateChunksAreAssembledCorrectly) {
  StreamCloud cloud = MakeCloud(StreamConfig("dup"));
  // Highly repetitive content: content-defined chunking emits the same
  // chunk id many times, so the range path must fan one decode (or one
  // cache hit) out to every covering occurrence.
  Bytes content;
  const Bytes unit = RandomContent(4 * 1024, 18);
  for (int i = 0; i < 16; ++i) {
    content.insert(content.end(), unit.begin(), unit.end());
  }
  ASSERT_TRUE(cloud.client->Put("rep.bin", content).ok());

  auto whole = cloud.client->GetRange("rep.bin", 0, content.size());
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->content, content);

  // Warm pass: duplicates fill from the cache, zero decodes.
  auto warm = cloud.client->GetRange("rep.bin", 0, content.size());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->content, content);
  EXPECT_EQ(warm->chunks_decoded, 0u);
}

TEST(RangeReadTest, WholeFileGetMatchesFullSpanRange) {
  StreamCloud writer = MakeCloud(StreamConfig("writer"));
  const Bytes content = RandomContent(96 * 1024, 19);
  ASSERT_TRUE(writer.client->Put("ab.bin", content).ok());

  // A second device over the same CSP pool: whole-file Get (decoded in
  // place, cache untouched) and a full-span GetRange (cache-owned buffers)
  // run the same scheduler and must agree byte for byte.
  StreamCloud reader = MakeCloud(StreamConfig("reader"), writer.csps);
  ASSERT_TRUE(reader.client->SyncMetadata().ok());
  auto whole = reader.client->Get("ab.bin");
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->content, content);
  EXPECT_EQ(whole->file_size, content.size());
  EXPECT_EQ(whole->chunks_from_cache, 0u);

  auto span = reader.client->GetRange("ab.bin", 0, content.size());
  ASSERT_TRUE(span.ok()) << span.status();
  EXPECT_EQ(span->content, whole->content);
  EXPECT_EQ(span->chunks_decoded, whole->chunks_decoded);
}

// Whole-file Gets consult the cache but never populate it: one large
// download must not flush a streaming working set.
TEST(RangeReadTest, WholeFileGetDoesNotPopulateCache) {
  StreamCloud cloud = MakeCloud(StreamConfig("reader"));
  const Bytes content = RandomContent(48 * 1024, 20);
  ASSERT_TRUE(cloud.client->Put("nf.bin", content).ok());

  auto got = cloud.client->Get("nf.bin");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content, content);
  EXPECT_EQ(cloud.client->chunk_cache().stats().entries, 0u);

  // But once a range read cached chunks, a whole-file Get reuses them.
  ASSERT_TRUE(cloud.client->GetRange("nf.bin", 0, content.size()).ok());
  auto warm = cloud.client->Get("nf.bin");
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->content, content);
  EXPECT_GT(warm->chunks_from_cache, 0u);
  EXPECT_EQ(warm->chunks_decoded, 0u);
}

// --- readahead join: a foreground miss never re-downloads a prefetch ----

// Parks every Download while closed, so a test can hold a readahead
// prefetch mid-transfer and race a foreground read against it.
class DownloadGate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
    changed_.notify_all();
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_) {
      return;
    }
    ++parked_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return !closed_; });
  }
  // True once `count` downloads have parked; false after `timeout`.
  bool WaitParked(int count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, timeout, [&] { return parked_ >= count; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool closed_ = false;
  int parked_ = 0;
};

class GatedCsp : public CloudConnector {
 public:
  GatedCsp(std::string id, DownloadGate* gate)
      : inner_(SimulatedCspOptions{std::move(id)}), gate_(gate) {}

  std::string_view id() const override { return inner_.id(); }
  Status Authenticate(const Credentials& credentials) override {
    return inner_.Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override {
    return inner_.List(prefix);
  }
  Status Upload(std::string_view name, ByteSpan data) override {
    return inner_.Upload(name, data);
  }
  Result<Bytes> Download(std::string_view name) override {
    gate_->Pass();
    return inner_.Download(name);
  }
  Status Delete(std::string_view name) override { return inner_.Delete(name); }

 private:
  SimulatedCsp inner_;
  DownloadGate* gate_;
};

// Four gated CSPs behind MetricsConnectors; they and the client count
// into `registry`.
struct GatedCloud {
  DownloadGate gate;
  obs::MetricsRegistry registry;
  std::unique_ptr<CyrusClient> client;

  explicit GatedCloud(CyrusConfig config) {
    config.metrics = &registry;  // readahead stats start from zero
    client = std::move(CyrusClient::Create(std::move(config))).value();
    for (int i = 0; i < kCsps; ++i) {
      auto csp = std::make_shared<MetricsConnector>(
          std::make_shared<GatedCsp>(StrCat("csp", i), &gate), &registry);
      CspProfile profile;
      profile.download_bytes_per_sec = 2e6;
      profile.upload_bytes_per_sec = 1e6;
      EXPECT_TRUE(client->AddCsp(csp, profile, Credentials{"token"}).ok());
    }
  }

  uint64_t downloads() {
    uint64_t total = 0;
    for (int i = 0; i < kCsps; ++i) {
      total += registry
                   .GetCounter("cyrus_csp_ops_total",
                               {{"csp", StrCat("csp", i)}, {"op", "download"}, {"result", "ok"}})
                   ->value();
    }
    return total;
  }

  static constexpr int kCsps = 4;
};

// Runs GetRange(chunk) on another thread once `cloud`'s prefetches are
// parked, waits until its cache lookup has missed, gives it `settle` to
// reach the join, then opens the gate. Returns the foreground result.
Result<GetResult> RaceForegroundRead(GatedCloud& cloud, const std::string& name,
                                     const ChunkSpan& chunk, int parked_prefetch_downloads) {
  EXPECT_TRUE(cloud.gate.WaitParked(parked_prefetch_downloads, std::chrono::seconds(30)));
  const uint64_t misses = cloud.client->chunk_cache().stats().misses;
  Result<GetResult> got = InternalError("not run");
  std::thread foreground(
      [&] { got = cloud.client->GetRange(name, chunk.offset, chunk.size); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cloud.client->chunk_cache().stats().misses == misses &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A foreground read that failed to join would park one more download.
  (void)cloud.gate.WaitParked(parked_prefetch_downloads + 1, std::chrono::milliseconds(200));
  cloud.gate.Open();
  foreground.join();
  return got;
}

TEST(RangeReadTest, ForegroundReadJoinsDownloadingPrefetch) {
  CyrusConfig config = StreamConfig("joiner");
  config.readahead_chunks = 1;
  GatedCloud cloud(config);
  const Bytes content = RandomContent(64 * 1024, 21);
  ASSERT_TRUE(cloud.client->Put("join.bin", content).ok());
  const std::vector<ChunkSpan> chunks =
      Chunker::Create(config.chunker)->Split(content);
  ASSERT_GE(chunks.size(), 4u);

  // Cache chunks 0 and 1 without arming the detector (offset 1 is a seek),
  // then read one cached byte mid-chunk-1: sequential, so it prefetches
  // chunk 2, whose first share download parks at the closed gate.
  const uint64_t mid = chunks[1].offset + chunks[1].size / 2;
  ASSERT_TRUE(cloud.client->GetRange("join.bin", 1, mid - 1).ok());
  cloud.gate.Close();
  const uint64_t before = cloud.downloads();
  ASSERT_TRUE(cloud.client->GetRange("join.bin", mid, 1).ok());

  Result<GetResult> got = RaceForegroundRead(cloud, "join.bin", chunks[2], 1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content, Slice(content, chunks[2].offset, chunks[2].size));
  EXPECT_EQ(got->chunks_decoded, 0u);
  EXPECT_EQ(got->chunks_from_cache, 1u);
  cloud.client->WaitForReadahead();
  // Each of chunk 2's t shares crossed the wire once, for the prefetch.
  EXPECT_EQ(cloud.downloads() - before, 2u);
  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(RangeReadTest, ForegroundReadClaimsQueuedPrefetch) {
  CyrusConfig config = StreamConfig("claimer");
  config.transfer_concurrency = 2;  // two workers: the third prefetch queues
  config.readahead_chunks = 3;
  GatedCloud cloud(config);
  const Bytes content = RandomContent(64 * 1024, 22);
  ASSERT_TRUE(cloud.client->Put("claim.bin", content).ok());
  const std::vector<ChunkSpan> chunks =
      Chunker::Create(config.chunker)->Split(content);
  ASSERT_GE(chunks.size(), 8u);

  // Cache chunks 0-3 without arming the detector, then read one cached
  // byte mid-chunk-3. The run is then long enough (~3.5 chunks) for a full
  // window of 3: chunks 4, 5 and 6.
  const uint64_t mid = chunks[3].offset + chunks[3].size / 2;
  ASSERT_LT(chunks[6].offset, 2 * mid + 1) << "window would stop short of chunk 6";
  ASSERT_TRUE(cloud.client->GetRange("claim.bin", 1, mid - 1).ok());
  cloud.gate.Close();
  const uint64_t before = cloud.downloads();
  ASSERT_TRUE(cloud.client->GetRange("claim.bin", mid, 1).ok());

  // Prefetches of chunks 4 and 5 hold both workers at the gate; chunk 6's
  // is still queued, so the foreground read takes it over and fetches it
  // once the workers free up, instead of waiting on a task that needs one.
  Result<GetResult> got = RaceForegroundRead(cloud, "claim.bin", chunks[6], 2);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->content, Slice(content, chunks[6].offset, chunks[6].size));
  cloud.client->WaitForReadahead();
  // t shares for each of chunks 4, 5 and 6: the claimed prefetch fetched
  // nothing (had the claim lost the race, the read joined it instead).
  EXPECT_EQ(cloud.downloads() - before, 6u);
  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_EQ(stats.issued, 3u);
  EXPECT_EQ(stats.issued, stats.completed + stats.cancelled);
}

// Delete forgets the name's stream: prefetches still queued for the
// deleted file cancel instead of downloading shares and caching chunks
// the delete just invalidated.
TEST(RangeReadTest, DeleteCancelsQueuedPrefetch) {
  CyrusConfig config = StreamConfig("deleter");
  config.transfer_concurrency = 2;  // both workers held by keep.bin's prefetches
  config.readahead_chunks = 2;
  GatedCloud cloud(config);
  const Bytes keep = RandomContent(64 * 1024, 24);
  const Bytes doomed = RandomContent(64 * 1024, 25);
  ASSERT_TRUE(cloud.client->Put("keep.bin", keep).ok());
  ASSERT_TRUE(cloud.client->Put("doomed.bin", doomed).ok());
  auto chunker = Chunker::Create(config.chunker);
  const std::vector<ChunkSpan> keep_chunks = chunker->Split(keep);
  const std::vector<ChunkSpan> doomed_chunks = chunker->Split(doomed);
  ASSERT_GE(keep_chunks.size(), 6u);
  ASSERT_GE(doomed_chunks.size(), 6u);

  // Cache chunks 0-3 of each file without arming the detector; reading
  // one more cached byte mid-chunk-3 then prefetches chunks 4 and 5.
  auto mid_of = [](const std::vector<ChunkSpan>& chunks) {
    return chunks[3].offset + chunks[3].size / 2;
  };
  const uint64_t keep_mid = mid_of(keep_chunks);
  const uint64_t doomed_mid = mid_of(doomed_chunks);
  ASSERT_LT(keep_chunks[5].offset, 2 * keep_mid + 1);
  ASSERT_LT(doomed_chunks[5].offset, 2 * doomed_mid + 1);
  ASSERT_TRUE(cloud.client->GetRange("keep.bin", 1, keep_mid - 1).ok());
  ASSERT_TRUE(cloud.client->GetRange("doomed.bin", 1, doomed_mid - 1).ok());
  ASSERT_EQ(cloud.client->chunk_cache().stats().entries, 8u);
  cloud.gate.Close();
  const uint64_t before = cloud.downloads();
  ASSERT_TRUE(cloud.client->GetRange("keep.bin", keep_mid, 1).ok());
  ASSERT_TRUE(cloud.gate.WaitParked(2, std::chrono::seconds(30)));
  ASSERT_TRUE(cloud.client->GetRange("doomed.bin", doomed_mid, 1).ok());

  ASSERT_TRUE(cloud.client->Delete("doomed.bin").ok());
  cloud.gate.Open();
  cloud.client->WaitForReadahead();
  // Only keep.bin's prefetches downloaded: t shares for each of its
  // chunks 4 and 5. Both of doomed.bin's were credited without a download.
  EXPECT_EQ(cloud.downloads() - before, 4u);
  const CyrusClient::ReadaheadStats stats = cloud.client->readahead_stats();
  EXPECT_EQ(stats.issued, 4u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 2u);
  // keep.bin's four chunks plus its two prefetched; none of doomed.bin's.
  EXPECT_EQ(cloud.client->chunk_cache().stats().entries, 4u + 2u);
}

}  // namespace
}  // namespace cyrus
