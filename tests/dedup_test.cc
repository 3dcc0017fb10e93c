// Cross-user convergent dedup: key derivation, the ShareIndex (refcounts,
// WAL recovery, concurrency), and the end-to-end write/read/GC paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/core/put_journal.h"
#include "src/crypto/convergent.h"
#include "src/crypto/naming.h"
#include "src/dedup/share_index.h"
#include "src/gateway/gateway.h"
#include "src/rs/secret_sharing.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 4;
constexpr char kSalt[] = "deployment-salt-for-tests";

Sha1Digest Id(std::string_view tag) { return Sha1::Hash(tag); }

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

ShareIndexEntry MakeEntry(uint64_t logical_size, uint64_t refcount) {
  ShareIndexEntry entry;
  entry.logical_size = logical_size;
  entry.t = 2;
  entry.n = 3;
  entry.refcount = refcount;
  entry.shares = {{0, 0}, {1, 1}, {2, 2}};
  return entry;
}

// --- ConvergentKeyDeriver ---

TEST(ConvergentTest, ContentKeyIsDeterministicPerChunk) {
  ConvergentKeyDeriver a(kSalt, "user-key-a");
  ConvergentKeyDeriver b(kSalt, "user-key-b");
  const Sha1Digest chunk = Id("chunk-1");
  // Same salt -> same content key regardless of user: that is what makes
  // two users' shares byte-identical.
  EXPECT_EQ(a.ContentKey(chunk), b.ContentKey(chunk));
  EXPECT_NE(a.ContentKey(chunk), a.ContentKey(Id("chunk-2")));
  // A different deployment salt derives unrelated keys (no cross-
  // deployment dictionary attacks).
  ConvergentKeyDeriver other("other-salt", "user-key-a");
  EXPECT_NE(a.ContentKey(chunk), other.ContentKey(chunk));
}

TEST(ConvergentTest, WrapUnwrapRoundTripsWithOnlyUserKey) {
  ConvergentKeyDeriver writer(kSalt, "user-key");
  const Sha1Digest chunk = Id("chunk-x");
  const std::string content_key = writer.ContentKey(chunk);
  const Bytes wrapped = writer.WrapForUser(content_key, chunk);
  // A second device of the same user has the user key but NOT the salt.
  ConvergentKeyDeriver reader("", "user-key");
  auto unwrapped = reader.UnwrapForUser(wrapped, chunk);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status();
  EXPECT_EQ(*unwrapped, content_key);
  // A different user cannot recover the content key from the wrap.
  ConvergentKeyDeriver stranger("", "other-user-key");
  auto stolen = stranger.UnwrapForUser(wrapped, chunk);
  ASSERT_TRUE(stolen.ok());
  EXPECT_NE(*stolen, content_key);
  // Empty wraps are a metadata bug, not a silent empty key.
  EXPECT_FALSE(reader.UnwrapForUser(Bytes{}, chunk).ok());
}

// --- ShareIndex (in-memory semantics) ---

TEST(ShareIndexTest, PublishLookupRefReleaseErase) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok()) << index_or.status();
  ShareIndex& index = **index_or;

  const Sha1Digest chunk = Id("c1");
  EXPECT_FALSE(index.Lookup(chunk).has_value());
  EXPECT_FALSE(index.LookupAndRef(chunk).has_value());  // miss counted

  ASSERT_TRUE(index.Publish(chunk, MakeEntry(4096, 1)).ok());
  auto hit = index.LookupAndRef(chunk);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->refcount, 2u);
  EXPECT_EQ(hit->shares.size(), 3u);

  // Erase refuses while referenced; releases make it eligible.
  EXPECT_EQ(index.Erase(chunk).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(index.Release(chunk).ok());
  ASSERT_TRUE(index.Release(chunk).ok());
  ASSERT_EQ(index.ZeroRefChunks().size(), 1u);
  // Over-release clamps at zero (reported, never negative): the entry and
  // its shares survive so no other user's data can be freed by a double
  // release.
  EXPECT_EQ(index.Release(chunk).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.Lookup(chunk)->refcount, 0u);
  ASSERT_TRUE(index.Erase(chunk).ok());
  EXPECT_FALSE(index.Lookup(chunk).has_value());
  EXPECT_EQ(index.Erase(chunk).code(), StatusCode::kNotFound);

  const ShareIndexStats stats = index.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ShareIndexTest, PublishMergesRacingDuplicates) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  const Sha1Digest chunk = Id("c-race");
  ASSERT_TRUE(index.Publish(chunk, MakeEntry(1000, 1)).ok());
  // The racing loser published the same convergent bytes to a superset of
  // CSPs: refcounts add, layouts union.
  ShareIndexEntry rival = MakeEntry(1000, 1);
  rival.shares.push_back(ChunkShare{3, 3});
  ASSERT_TRUE(index.Publish(chunk, rival).ok());
  auto merged = index.Lookup(chunk);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->refcount, 2u);
  EXPECT_EQ(merged->shares.size(), 4u);
  // A (size, t) mismatch is corruption, not a race.
  ShareIndexEntry corrupt = MakeEntry(999, 1);
  EXPECT_EQ(index.Publish(chunk, corrupt).code(), StatusCode::kDataLoss);
}

TEST(ShareIndexTest, StatsTrackLogicalUniquePhysical) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  ASSERT_TRUE(index.Publish(Id("a"), MakeEntry(1000, 3)).ok());
  ASSERT_TRUE(index.Publish(Id("b"), MakeEntry(500, 1)).ok());
  const ShareIndexStats stats = index.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.logical_bytes, 3 * 1000u + 500u);
  EXPECT_EQ(stats.unique_bytes, 1500u);
  // 3 shares of ceil(size/t) bytes each, t = 2.
  EXPECT_EQ(stats.physical_bytes, 3 * ShareSize(1000, 2) + 3 * ShareSize(500, 2));
  EXPECT_NEAR(stats.dedup_ratio(), 3500.0 / 1500.0, 1e-9);
}

TEST(ShareIndexTest, ConcurrentRefUnrefStaysExact) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  constexpr int kChunks = 8;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 200;
  for (int c = 0; c < kChunks; ++c) {
    ASSERT_TRUE(
        index.Publish(Id(StrCat("cc", c)), MakeEntry(100 * (c + 1), 1)).ok());
  }
  // Every thread adds then releases one ref per chunk per round: the net
  // must be exactly the published refcount of 1, under real contention.
  ThreadPool pool(kThreads);
  ThreadPool::TaskGroup group;
  for (int w = 0; w < kThreads; ++w) {
    pool.Submit(group, [&index, w] {
      for (int r = 0; r < kRoundsPerThread; ++r) {
        for (int c = 0; c < kChunks; ++c) {
          const Sha1Digest chunk = Id(StrCat("cc", c));
          if ((w + r + c) % 2 == 0) {
            EXPECT_TRUE(index.AddRef(chunk).ok());
            EXPECT_TRUE(index.Release(chunk).ok());
          } else {
            auto hit = index.LookupAndRef(chunk);
            EXPECT_TRUE(hit.has_value());
            EXPECT_TRUE(index.Release(chunk).ok());
          }
        }
      }
    });
  }
  pool.WaitGroup(group);
  for (int c = 0; c < kChunks; ++c) {
    auto entry = index.Lookup(Id(StrCat("cc", c)));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->refcount, 1u) << "chunk " << c;
  }
  EXPECT_TRUE(index.ZeroRefChunks().empty());
}

TEST(ShareIndexTest, JournalRecoversAcrossReopen) {
  const std::string journal =
      StrCat(testing::TempDir(), "/cyrus-dedup-wal-", ::getpid(), ".log");
  std::remove(journal.c_str());
  ShareIndexOptions options;
  options.journal_path = journal;
  {
    auto index_or = ShareIndex::Open(options);
    ASSERT_TRUE(index_or.ok()) << index_or.status();
    ShareIndex& index = **index_or;
    ASSERT_TRUE(index.Publish(Id("keep"), MakeEntry(1000, 1)).ok());
    ASSERT_TRUE(index.Publish(Id("gone"), MakeEntry(2000, 1)).ok());
    ASSERT_TRUE(index.AddRef(Id("keep")).ok());
    ASSERT_TRUE(index.Release(Id("gone")).ok());
    ASSERT_TRUE(index.Erase(Id("gone")).ok());
    // No clean shutdown path: the destructor closes the FILE*, but every
    // record was already fsynced when appended.
  }
  // Simulate a torn final record from a crash mid-append.
  {
    std::FILE* f = std::fopen(journal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("P deadbeef", f);  // no newline, truncated payload
    std::fclose(f);
  }
  auto reopened_or = ShareIndex::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  ShareIndex& reopened = **reopened_or;
  EXPECT_EQ(reopened.size(), 1u);
  auto kept = reopened.Lookup(Id("keep"));
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->refcount, 2u);
  EXPECT_EQ(kept->logical_size, 1000u);
  EXPECT_EQ(kept->shares.size(), 3u);
  EXPECT_FALSE(reopened.Lookup(Id("gone")).has_value());
  std::remove(journal.c_str());
}

// A crash cut a P record short just before its optional digest block: the
// prefix still decodes, but its newline never reached the disk, so the
// record was never acknowledged. Replaying it would make a live entry whose
// reference no metadata holds: rollback would spare its orphan shares and
// GC would never reclaim them.
TEST(ShareIndexTest, TornPublishRecordIsDroppedOnReopen) {
  const std::string journal =
      StrCat(testing::TempDir(), "/cyrus-dedup-torn-", ::getpid(), ".log");
  std::remove(journal.c_str());
  ShareIndexOptions options;
  options.journal_path = journal;
  ShareIndexEntry torn_entry = MakeEntry(3000, 1);
  for (ChunkShare& share : torn_entry.shares) {
    share.digest = Sha1::Hash(StrCat("share-", share.share_index));
  }
  {
    auto index_or = ShareIndex::Open(options);
    ASSERT_TRUE(index_or.ok()) << index_or.status();
    ASSERT_TRUE((*index_or)->Publish(Id("keep"), MakeEntry(1000, 1)).ok());
  }
  {
    // Encode the torn entry's P record through a second, scratch journal,
    // then append it to the real one without its digest block or newline.
    const std::string scratch = journal + ".scratch";
    std::remove(scratch.c_str());
    ShareIndexOptions scratch_options;
    scratch_options.journal_path = scratch;
    {
      auto index_or = ShareIndex::Open(scratch_options);
      ASSERT_TRUE(index_or.ok()) << index_or.status();
      ASSERT_TRUE((*index_or)->Publish(Id("torn"), torn_entry).ok());
    }
    std::FILE* in = std::fopen(scratch.c_str(), "r");
    ASSERT_NE(in, nullptr);
    char buffer[4096];
    const size_t read = std::fread(buffer, 1, sizeof(buffer), in);
    std::fclose(in);
    std::remove(scratch.c_str());
    std::string record(buffer, read);
    ASSERT_EQ(record.back(), '\n');
    // Digest block: a u32 count, then per share a u32 index and 20 bytes.
    const size_t digest_block_hex = 2 * (4 + torn_entry.shares.size() * (4 + 20));
    record.resize(record.size() - 1 - digest_block_hex);
    std::FILE* out = std::fopen(journal.c_str(), "ab");
    ASSERT_NE(out, nullptr);
    std::fwrite(record.data(), 1, record.size(), out);
    std::fclose(out);
  }
  auto reopened_or = ShareIndex::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  ShareIndex& reopened = **reopened_or;
  EXPECT_FALSE(reopened.Lookup(Id("torn")).has_value());
  EXPECT_EQ(reopened.size(), 1u);
  auto kept = reopened.Lookup(Id("keep"));
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->refcount, 1u);
  std::remove(journal.c_str());
}

// Journaled refs from several threads: every record is appended under its
// shard's lock, so the log replays to exactly the refcounts memory held.
TEST(ShareIndexTest, JournaledConcurrentRefsReplayExactly) {
  const std::string journal =
      StrCat(testing::TempDir(), "/cyrus-dedup-refs-", ::getpid(), ".log");
  std::remove(journal.c_str());
  ShareIndexOptions options;
  options.journal_path = journal;
  constexpr int kChunks = 3;
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  // Per round and chunk, a thread takes one net reference (AddRef or
  // LookupAndRef) or takes and drops one (AddRef then Release).
  std::vector<uint64_t> expected(kChunks, 1);
  for (int w = 0; w < kThreads; ++w) {
    for (int r = 0; r < kRounds; ++r) {
      for (int c = 0; c < kChunks; ++c) {
        expected[c] += (w + r + c) % 3 == 2 ? 0 : 1;
      }
    }
  }
  {
    auto index_or = ShareIndex::Open(options);
    ASSERT_TRUE(index_or.ok()) << index_or.status();
    ShareIndex& index = **index_or;
    for (int c = 0; c < kChunks; ++c) {
      ASSERT_TRUE(index.Publish(Id(StrCat("jr", c)), MakeEntry(100, 1)).ok());
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&index, w] {
        for (int r = 0; r < kRounds; ++r) {
          for (int c = 0; c < kChunks; ++c) {
            const Sha1Digest chunk = Id(StrCat("jr", c));
            switch ((w + r + c) % 3) {
              case 0:
                EXPECT_TRUE(index.AddRef(chunk).ok());
                break;
              case 1:
                EXPECT_TRUE(index.LookupAndRef(chunk).has_value());
                break;
              default:
                EXPECT_TRUE(index.AddRef(chunk).ok());
                EXPECT_TRUE(index.Release(chunk).ok());
                break;
            }
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (int c = 0; c < kChunks; ++c) {
      ASSERT_EQ(index.Lookup(Id(StrCat("jr", c)))->refcount, expected[c]) << c;
    }
  }
  auto reopened_or = ShareIndex::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  for (int c = 0; c < kChunks; ++c) {
    auto entry = (*reopened_or)->Lookup(Id(StrCat("jr", c)));
    ASSERT_TRUE(entry.has_value()) << c;
    EXPECT_EQ(entry->refcount, expected[c]) << c;
  }
  std::remove(journal.c_str());
}

TEST(ShareIndexTest, PendingDeleteTombstoneInvisibleUntilRevived) {
  const std::string journal =
      StrCat(testing::TempDir(), "/cyrus-dedup-tomb-", ::getpid(), ".log");
  std::remove(journal.c_str());
  ShareIndexOptions options;
  options.journal_path = journal;
  {
    auto index_or = ShareIndex::Open(options);
    ASSERT_TRUE(index_or.ok()) << index_or.status();
    ShareIndex& index = **index_or;

    // What a partially failed GC pass leaves behind: zero references,
    // pending_delete set, only the undeleted locations recorded.
    ShareIndexEntry tombstone = MakeEntry(4096, 0);
    tombstone.pending_delete = true;
    tombstone.shares = {{2, 2}};
    ASSERT_TRUE(index.Publish(Id("tomb"), tombstone).ok());
    ASSERT_TRUE(index.Publish(Id("tomb2"), tombstone).ok());

    // Invisible to writers: nobody may adopt a partially deleted layout.
    EXPECT_FALSE(index.LookupAndRef(Id("tomb")).has_value());
    EXPECT_EQ(index.AddRef(Id("tomb")).code(), StatusCode::kNotFound);
    // ...but scrub still surfaces it for retry.
    EXPECT_EQ(index.ZeroRefChunks().size(), 2u);
    auto raw = index.Lookup(Id("tomb"));
    ASSERT_TRUE(raw.has_value());
    EXPECT_TRUE(raw->pending_delete);
    EXPECT_EQ(raw->refcount, 0u);

    // A writer that re-uploaded the full convergent layout revives the
    // entry: the merge clears pending_delete and the chunk is adoptable.
    ASSERT_TRUE(index.Publish(Id("tomb"), MakeEntry(4096, 1)).ok());
    auto revived = index.LookupAndRef(Id("tomb"));
    ASSERT_TRUE(revived.has_value());
    EXPECT_FALSE(revived->pending_delete);
    EXPECT_EQ(revived->refcount, 2u);
    EXPECT_EQ(revived->shares.size(), 3u);
  }
  // The flag is a durable property of the entry (WAL record v2): a restart
  // must not resurrect a tombstone as adoptable.
  auto reopened_or = ShareIndex::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  ShareIndex& reopened = **reopened_or;
  EXPECT_FALSE(reopened.LookupAndRef(Id("tomb2")).has_value());
  auto still_tomb = reopened.Lookup(Id("tomb2"));
  ASSERT_TRUE(still_tomb.has_value());
  EXPECT_TRUE(still_tomb->pending_delete);
  auto still_live = reopened.Lookup(Id("tomb"));
  ASSERT_TRUE(still_live.has_value());
  EXPECT_FALSE(still_live->pending_delete);
  EXPECT_EQ(still_live->refcount, 2u);
  std::remove(journal.c_str());
}

TEST(ShareIndexTest, JournaledSnapshotsAndDeltasReplayExactly) {
  const std::string journal =
      StrCat(testing::TempDir(), "/cyrus-dedup-race-", ::getpid(), ".log");
  std::remove(journal.c_str());
  ShareIndexOptions options;
  options.journal_path = journal;
  const Sha1Digest chunk = Id("contended");
  {
    auto index_or = ShareIndex::Open(options);
    ASSERT_TRUE(index_or.ok()) << index_or.status();
    ShareIndex& index = **index_or;
    ASSERT_TRUE(index.Publish(chunk, MakeEntry(4096, 1)).ok());

    // Refcount deltas race against full-entry snapshots (ReplaceShares
    // journals a P record). Snapshots are appended under the same shard
    // lock as the mutation, so replay sees them in memory order - a
    // snapshot can never swallow a delta that preceded it.
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&index, &chunk] {
        for (int i = 0; i < 100; ++i) {
          EXPECT_TRUE(index.AddRef(chunk).ok());
          EXPECT_TRUE(index.Release(chunk).ok());
        }
      });
    }
    threads.emplace_back([&index, &chunk] {
      for (int i = 0; i < 50; ++i) {
        std::vector<ChunkShare> shares =
            (i % 2 == 0) ? std::vector<ChunkShare>{{0, 0}, {1, 1}, {2, 2}}
                         : std::vector<ChunkShare>{{0, 1}, {1, 2}, {2, 3}};
        EXPECT_TRUE(index.ReplaceShares(chunk, std::move(shares)).ok());
      }
    });
    for (auto& thread : threads) {
      thread.join();
    }
    ASSERT_EQ(index.Lookup(chunk)->refcount, 1u);
  }
  auto reopened_or = ShareIndex::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  auto recovered = (*reopened_or)->Lookup(chunk);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->refcount, 1u);
  std::remove(journal.c_str());
}

// --- End-to-end through CyrusClient ---

struct TestCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

CyrusConfig ConvergentConfig(std::string client_id, ShareIndex* index) {
  CyrusConfig config;
  config.client_id = std::move(client_id);
  config.key_string = "deployment key material";
  config.t = 2;
  config.epsilon = 1e-4;
  config.default_failure_prob = 0.01;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  config.dedup_mode = DedupMode::kConvergent;
  config.dedup_salt = kSalt;
  config.share_index = index;
  return config;
}

// All CSPs name-keyed: convergent shares are idempotent overwrites.
std::vector<std::shared_ptr<SimulatedCsp>> MakeCsps(int count = kNumCsps) {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  for (int i = 0; i < count; ++i) {
    SimulatedCspOptions o;
    o.id = "csp" + std::to_string(i);
    o.naming = NamingPolicy::kNameKeyed;
    csps.push_back(std::make_shared<SimulatedCsp>(o));
  }
  return csps;
}

TestCloud MakeCloud(CyrusConfig config,
                    std::vector<std::shared_ptr<SimulatedCsp>> csps = {}) {
  TestCloud cloud;
  cloud.csps = csps.empty() ? MakeCsps() : std::move(csps);
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (size_t i = 0; i < cloud.csps.size(); ++i) {
    CspProfile profile;
    profile.rtt_ms = 50;
    profile.download_bytes_per_sec = 10e6;
    profile.upload_bytes_per_sec = 5e6;
    auto added = cloud.client->AddCsp(cloud.csps[i], profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

// Share objects at a CSP (everything that is not a metadata object).
size_t ShareObjectCount(SimulatedCsp& csp) {
  auto listing = csp.List("");
  EXPECT_TRUE(listing.ok());
  size_t count = 0;
  for (const ObjectInfo& object : *listing) {
    if (object.name.rfind("meta-", 0) != 0) {
      ++count;
    }
  }
  return count;
}

size_t TotalShareObjects(const std::vector<std::shared_ptr<SimulatedCsp>>& csps) {
  size_t total = 0;
  for (const auto& csp : csps) {
    total += ShareObjectCount(*csp);
  }
  return total;
}

TEST(DedupE2ETest, CreateRequiresSaltInConvergentMode) {
  CyrusConfig config = ConvergentConfig("d1", nullptr);
  config.dedup_salt.clear();
  EXPECT_EQ(CyrusClient::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DedupE2ETest, SecondUserSkipsUploadEntirely) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;

  auto csps = MakeCsps();
  TestCloud alice = MakeCloud(ConvergentConfig("alice", &index), csps);
  TestCloud bob = MakeCloud(ConvergentConfig("bob", &index), csps);

  const Bytes content = RandomContent(32 * 1024, 7);
  auto first = alice.client->Put("t/alice/report.bin", content);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->new_chunks, first->total_chunks);
  EXPECT_EQ(first->index_hit_chunks, 0u);
  const size_t objects_after_first = TotalShareObjects(csps);
  ASSERT_GT(objects_after_first, 0u);

  auto second = bob.client->Put("t/bob/copy-of-report.bin", content);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->new_chunks, 0u);
  EXPECT_EQ(second->index_hit_chunks, second->total_chunks);
  EXPECT_EQ(second->uploaded_share_bytes, 0u);
  // No new share object appeared anywhere: bob stored by reference.
  EXPECT_EQ(TotalShareObjects(csps), objects_after_first);

  // Both users read their own file back through the wrapped content key.
  auto got_alice = alice.client->Get("t/alice/report.bin");
  ASSERT_TRUE(got_alice.ok()) << got_alice.status();
  EXPECT_EQ(got_alice->content, content);
  auto got_bob = bob.client->Get("t/bob/copy-of-report.bin");
  ASSERT_TRUE(got_bob.ok()) << got_bob.status();
  EXPECT_EQ(got_bob->content, content);

  const ShareIndexStats stats = index.Stats();
  EXPECT_NEAR(stats.dedup_ratio(), 2.0, 0.01);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

// A layout as a comparable list of (csp, index, digest).
std::vector<std::tuple<int32_t, uint32_t, Sha1Digest>> Layout(
    const std::vector<ChunkShare>& shares) {
  std::vector<std::tuple<int32_t, uint32_t, Sha1Digest>> layout;
  for (const ChunkShare& share : shares) {
    layout.emplace_back(share.csp, share.share_index, share.digest);
  }
  return layout;
}

// A rebuilt layout reaches the ShareIndex whichever path rebuilt it - a
// Get's lazy migration or a scrub's full repair - so the index names no
// removed CSP, and a second user's Put of the same bytes adopts shares
// that exist and reads them back.
TEST(DedupE2ETest, RebuiltLayoutReachesTheIndexFromGetAndScrub) {
  for (const bool by_scrub : {false, true}) {
    SCOPED_TRACE(by_scrub ? "scrub repair" : "Get migration");
    auto index_or = ShareIndex::Open(ShareIndexOptions{});
    ASSERT_TRUE(index_or.ok());
    ShareIndex& index = **index_or;
    // One more CSP than n, so a share off the removed CSP has somewhere to go.
    auto csps = MakeCsps(kNumCsps + 1);
    TestCloud alice = MakeCloud(ConvergentConfig("alice", &index), csps);
    TestCloud bob = MakeCloud(ConvergentConfig("bob", &index), csps);

    const Bytes content = RandomContent(8 * 1024, by_scrub ? 91 : 92);
    auto put = alice.client->Put("a/doc.bin", content);
    ASSERT_TRUE(put.ok()) << put.status();
    const std::vector<Sha1Digest> chunks = alice.client->chunk_table().AllChunkIds();
    ASSERT_FALSE(chunks.empty());
    const int victim = alice.client->chunk_table().Find(chunks[0])->shares[0].csp;
    ASSERT_TRUE(alice.client->RemoveCsp(victim).ok());
    ASSERT_TRUE(bob.client->RemoveCsp(victim).ok());

    if (by_scrub) {
      auto scrub = alice.client->ScrubOnce();
      ASSERT_TRUE(scrub.ok()) << scrub.status();
      EXPECT_GT(scrub->stats.chunks_repaired, 0u);
      EXPECT_TRUE(scrub->unrepaired.empty());
    } else {
      auto get = alice.client->Get("a/doc.bin");
      ASSERT_TRUE(get.ok()) << get.status();
      EXPECT_GT(get->migrated_shares, 0u);
    }
    EXPECT_TRUE(alice.client->chunk_table().ChunksOnCsp(victim).empty());
    for (const Sha1Digest& chunk : chunks) {
      std::optional<ShareIndexEntry> entry = index.Lookup(chunk);
      ASSERT_TRUE(entry.has_value());
      for (const ChunkShare& share : entry->shares) {
        EXPECT_NE(share.csp, victim) << "index still names the removed CSP";
      }
      EXPECT_EQ(Layout(entry->shares),
                Layout(alice.client->chunk_table().Find(chunk)->shares));
    }

    auto copy = bob.client->Put("b/copy.bin", content);
    ASSERT_TRUE(copy.ok()) << copy.status();
    EXPECT_EQ(copy->index_hit_chunks, copy->total_chunks);
    EXPECT_EQ(copy->uploaded_share_bytes, 0u);
    auto got = bob.client->Get("b/copy.bin");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->content, content);
  }
}

// A scrub rebuild that lands some but not all of a convergent chunk's
// missing shares still copies the layout it left into the ShareIndex: the
// chunk table has already swapped dead locations for the fresh shares.
TEST(DedupE2ETest, PartialScrubRebuildKeepsTheIndexInStepWithTheTable) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  // Six CSPs, the last one full: it lists fine and stays active but refuses
  // every upload, so a rebuild can place only what the others take.
  auto csps = MakeCsps(kNumCsps + 1);
  SimulatedCspOptions full;
  full.id = "csp-full";
  full.quota_bytes = 1;
  csps.push_back(std::make_shared<SimulatedCsp>(full));
  TestCloud cloud = MakeCloud(ConvergentConfig("partial", &index), csps);

  ASSERT_TRUE(cloud.client->Put("doc.bin", RandomContent(120, 93)).ok());
  ASSERT_EQ(cloud.client->chunk_table().size(), 1u);
  const Sha1Digest chunk = cloud.client->chunk_table().AllChunkIds()[0];
  const std::vector<ChunkShare> before = cloud.client->chunk_table().Find(chunk)->shares;
  ASSERT_EQ(before.size(), 4u);  // n = 4 of the five CSPs with room

  // Two holders die: the target stays at 4 (four CSPs active), two shares
  // are missing, and only the one free CSP with room takes a rebuilt share.
  cloud.csps[before[0].csp]->set_available(false);
  cloud.csps[before[1].csp]->set_available(false);
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_EQ(scrub->stats.shares_rebuilt, 1u);
  EXPECT_EQ(scrub->stats.chunks_repaired, 0u);
  ASSERT_EQ(scrub->unrepaired.size(), 1u);
  EXPECT_EQ(scrub->unrepaired[0].chunk_id, chunk);

  const std::vector<ChunkShare>& after = cloud.client->chunk_table().Find(chunk)->shares;
  EXPECT_NE(Layout(after), Layout(before));
  std::optional<ShareIndexEntry> entry = index.Lookup(chunk);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(Layout(entry->shares), Layout(after));
}

// The same partial rebuild reaches published metadata too: the scrub
// republishes every chunk whose layout it changed, not only the chunks it
// brought back to target, so a fresh device of the same user finds the
// rebuilt share where the table put it.
TEST(DedupE2ETest, PartialScrubRebuildReachesPublishedMetadata) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  auto csps = MakeCsps(kNumCsps + 1);
  SimulatedCspOptions full;
  full.id = "csp-full";
  full.quota_bytes = 1;
  csps.push_back(std::make_shared<SimulatedCsp>(full));
  TestCloud cloud = MakeCloud(ConvergentConfig("partial", &index), csps);

  ASSERT_TRUE(cloud.client->Put("doc.bin", RandomContent(120, 93)).ok());
  ASSERT_EQ(cloud.client->chunk_table().size(), 1u);
  const Sha1Digest chunk = cloud.client->chunk_table().AllChunkIds()[0];
  const std::vector<ChunkShare> before = cloud.client->chunk_table().Find(chunk)->shares;
  ASSERT_EQ(before.size(), 4u);
  cloud.csps[before[0].csp]->set_available(false);
  cloud.csps[before[1].csp]->set_available(false);
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_EQ(scrub->stats.shares_rebuilt, 1u);
  ASSERT_EQ(scrub->stats.chunks_repaired, 0u);

  // Rows by CSP name: the two clients number their CSPs independently.
  auto named_layout = [](const CyrusClient& client, const Sha1Digest& id) {
    std::set<std::pair<std::string, uint32_t>> rows;
    if (const ChunkEntry* entry = client.chunk_table().Find(id)) {
      for (const ChunkShare& share : entry->shares) {
        rows.emplace(*client.registry().name(share.csp), share.share_index);
      }
    }
    return rows;
  };
  const auto table_layout = named_layout(*cloud.client, chunk);
  // The dead holders come back so the new device can add them; Recover
  // takes the layout from published metadata alone.
  cloud.csps[before[0].csp]->set_available(true);
  cloud.csps[before[1].csp]->set_available(true);
  TestCloud device = MakeCloud(ConvergentConfig("partial-device-2", &index), csps);
  ASSERT_TRUE(device.client->Recover().ok());
  EXPECT_EQ(named_layout(*device.client, chunk), table_layout);
}

TEST(DedupE2ETest, ConvergentRoundTripWithoutIndexStillWorks) {
  // dedup_mode on, no shared index: chunks are convergent-encoded and
  // readable, there is just no cross-user table to consult.
  TestCloud cloud = MakeCloud(ConvergentConfig("solo", nullptr));
  const Bytes content = RandomContent(20 * 1024, 11);
  auto put = cloud.client->Put("file.bin", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->index_hit_chunks, 0u);
  auto get = cloud.client->Get("file.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(DedupE2ETest, DeleteThenScrubReclaimsPhysicalShares) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  TestCloud cloud = MakeCloud(ConvergentConfig("gc", &index));

  const Bytes keep = RandomContent(16 * 1024, 21);
  const Bytes drop = RandomContent(16 * 1024, 22);
  ASSERT_TRUE(cloud.client->Put("keep.bin", keep).ok());
  ASSERT_TRUE(cloud.client->Put("drop.bin", drop).ok());
  const size_t objects_before = TotalShareObjects(cloud.csps);
  const uint64_t unique_before = index.Stats().unique_bytes;

  ASSERT_TRUE(cloud.client->Delete("drop.bin").ok());
  ASSERT_GT(index.ZeroRefChunks().size(), 0u);

  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_GT(scrub->stats.chunks_reclaimed, 0u);
  EXPECT_GT(scrub->stats.shares_reclaimed, 0u);

  // Physical objects for drop.bin are gone; keep.bin still reads back.
  EXPECT_LT(TotalShareObjects(cloud.csps), objects_before);
  EXPECT_LT(index.Stats().unique_bytes, unique_before);
  EXPECT_TRUE(index.ZeroRefChunks().empty());
  auto get = cloud.client->Get("keep.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, keep);
}

// Once scrub reclaims a deleted file's chunks, the chunk table holds no
// layout for them: the old version fails to read with kDataLoss, and a
// metadata rebalance leaves that version's last published metadata alone
// instead of failing.
TEST(DedupE2ETest, ReclaimedHistoryIsUnreadableAndSkippedByRebalance) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  TestCloud cloud = MakeCloud(ConvergentConfig("gc", &index));

  const Bytes keep = RandomContent(16 * 1024, 23);
  const Bytes drop = RandomContent(16 * 1024, 24);
  ASSERT_TRUE(cloud.client->Put("keep.bin", keep).ok());
  auto dropped = cloud.client->Put("drop.bin", drop);
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  ASSERT_TRUE(cloud.client->Delete("drop.bin").ok());
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_GT(scrub->stats.chunks_reclaimed, 0u);
  for (const ChunkRecord& chunk : cloud.client->tree().Find(dropped->version_id)->chunks) {
    EXPECT_FALSE(cloud.client->chunk_table().Contains(chunk.id));
  }

  EXPECT_EQ(cloud.client->GetVersion("drop.bin", dropped->version_id).status().code(),
            StatusCode::kDataLoss);
  ASSERT_TRUE(cloud.client->RebalanceMetadata().ok());
  auto get = cloud.client->Get("keep.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, keep);
}

TEST(DedupE2ETest, OverwriteReleasesSupersededChunks) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  TestCloud cloud = MakeCloud(ConvergentConfig("ow", &index));

  const Bytes v1 = RandomContent(16 * 1024, 31);
  const Bytes v2 = RandomContent(16 * 1024, 32);
  ASSERT_TRUE(cloud.client->Put("doc.bin", v1).ok());
  ASSERT_TRUE(cloud.client->Put("doc.bin", v2).ok());
  // v1's chunks lost their only reference; scrub reclaims them while v2
  // stays live and readable.
  ASSERT_GT(index.ZeroRefChunks().size(), 0u);
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_GT(scrub->stats.chunks_reclaimed, 0u);
  auto get = cloud.client->Get("doc.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, v2);
}

// After scrub reclaims an overwritten version's chunks, the snapshot leaves
// that version out (as a rebalance skips it) and imports whole into a
// fresh client, which reads the live version back.
TEST(DedupE2ETest, SnapshotRoundTripsAfterScrubReclaims) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  auto csps = MakeCsps();
  TestCloud cloud = MakeCloud(ConvergentConfig("snap", &index), csps);

  const Bytes v1 = RandomContent(16 * 1024, 35);
  const Bytes v2 = RandomContent(16 * 1024, 36);
  auto first = cloud.client->Put("doc.bin", v1);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = cloud.client->Put("doc.bin", v2);
  ASSERT_TRUE(second.ok()) << second.status();
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_GT(scrub->stats.chunks_reclaimed, 0u);

  const LocalCacheSnapshot snapshot = cloud.client->ExportCache();
  TestCloud fresh = MakeCloud(ConvergentConfig("snap", &index), csps);
  const Status imported = fresh.client->ImportCache(snapshot);
  ASSERT_TRUE(imported.ok()) << imported;
  ASSERT_EQ(snapshot.versions.size(), 1u);
  EXPECT_EQ(snapshot.versions[0].id, second->version_id);
  auto get = fresh.client->Get("doc.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, v2);
  EXPECT_EQ(get->version_id, second->version_id);
}

TEST(DedupE2ETest, ReAdoptionAfterRemoteReclaimRescatters) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  TestCloud cloud = MakeCloud(ConvergentConfig("resc", &index));

  const Bytes content = RandomContent(24 * 1024, 53);
  ASSERT_TRUE(cloud.client->Put("orig.bin", content).ok());
  ASSERT_TRUE(cloud.client->Delete("orig.bin").ok());

  // Another shard's scrub reclaims the zero-ref chunks: index entries go,
  // then the share objects go. This client's chunk table still caches the
  // now-void layout.
  for (const Sha1Digest& chunk : index.ZeroRefChunks()) {
    ASSERT_TRUE(index.Erase(chunk).ok());
  }
  for (const auto& csp : cloud.csps) {
    auto listing = csp->List("");
    ASSERT_TRUE(listing.ok());
    for (const ObjectInfo& object : *listing) {
      if (object.name.rfind("meta-", 0) != 0) {
        ASSERT_TRUE(csp->Delete(object.name).ok());
      }
    }
  }
  ASSERT_EQ(TotalShareObjects(cloud.csps), 0u);

  // Re-putting the same content must re-encode and re-upload, not
  // republish the cached layout - those objects no longer exist anywhere.
  auto again = cloud.client->Put("again.bin", content);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_GT(again->uploaded_share_bytes, 0u);
  EXPECT_GT(TotalShareObjects(cloud.csps), 0u);
  EXPECT_GT(index.Stats().entries, 0u);
  auto get = cloud.client->Get("again.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(DedupE2ETest, FailedReclaimLeavesTombstoneAndRetriesNextPass) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;

  auto csps = MakeCsps();
  auto client_or = CyrusClient::Create(ConvergentConfig("tomb", &index));
  ASSERT_TRUE(client_or.ok()) << client_or.status();
  std::unique_ptr<CyrusClient> client = std::move(client_or).value();
  std::vector<std::shared_ptr<FaultInjectingConnector>> faulty;
  for (const auto& csp : csps) {
    auto wrapper =
        std::make_shared<FaultInjectingConnector>(csp, FaultInjectionOptions{});
    CspProfile profile;
    profile.rtt_ms = 50;
    profile.download_bytes_per_sec = 10e6;
    profile.upload_bytes_per_sec = 5e6;
    ASSERT_TRUE(client->AddCsp(wrapper, profile, Credentials{"token"}).ok());
    faulty.push_back(std::move(wrapper));
  }

  const Bytes drop = RandomContent(16 * 1024, 61);
  ASSERT_TRUE(client->Put("drop.bin", drop).ok());
  ASSERT_TRUE(client->Delete("drop.bin").ok());

  // One provider goes dark before scrub can delete its share objects.
  int down = -1;
  for (int i = 0; i < kNumCsps; ++i) {
    if (ShareObjectCount(*csps[i]) > 0) {
      down = i;
      break;
    }
  }
  ASSERT_GE(down, 0);
  faulty[down]->set_permanently_down(true);

  auto first = client->ScrubOnce();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GE(first->stats.reclaims_deferred, 1u);
  // The failed deletes left pending-delete tombstones, not silently erased
  // index entries: the surviving objects keep a record that drives a
  // retry, while writers cannot adopt the partially deleted layout.
  std::vector<Sha1Digest> pending = index.ZeroRefChunks();
  ASSERT_FALSE(pending.empty());
  for (const Sha1Digest& chunk : pending) {
    auto entry = index.Lookup(chunk);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(entry->pending_delete) << chunk.ToHex();
    EXPECT_FALSE(index.LookupAndRef(chunk).has_value());
  }

  // The provider comes back; the next pass finishes the deletes.
  faulty[down]->set_permanently_down(false);
  ASSERT_TRUE(client->MarkCspRecovered(down).ok());
  auto second = client->ScrubOnce();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GE(second->stats.chunks_reclaimed, 1u);
  EXPECT_TRUE(index.ZeroRefChunks().empty());
  EXPECT_EQ(TotalShareObjects(csps), 0u);
}

TEST(DedupE2ETest, JournalRollbackSparesObjectsOtherTenantsReference) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;
  auto csps = MakeCsps();

  // A tenant on another metadata shard owns this chunk: its convergent
  // share objects and index entry exist, but no file metadata this client
  // could sync references them.
  const Sha1Digest shared_chunk = Id("foreign-tenant-chunk");
  const uint32_t t = 2;
  std::vector<std::string> shared_objects;
  for (const auto& csp : csps) {
    ASSERT_TRUE(csp->Authenticate(Credentials{"token"}).ok());
  }
  for (uint32_t i = 0; i < 3; ++i) {
    const std::string name = ShareName(shared_chunk, i, t);
    ASSERT_TRUE(csps[i]->Upload(name, RandomContent(512, 70 + i)).ok());
    shared_objects.push_back(name);
  }
  ShareIndexEntry entry;
  entry.logical_size = 512;
  entry.t = t;
  entry.n = 3;
  entry.refcount = 1;
  entry.shares = {{0, 0}, {1, 1}, {2, 2}};
  ASSERT_TRUE(index.Publish(shared_chunk, entry).ok());

  // This client crashed mid-Put after journaling uploads of the very same
  // content-addressed objects, plus one object nothing else references.
  const std::string orphan = ShareName(Id("mine-alone"), 0, t);
  ASSERT_TRUE(csps[3]->Upload(orphan, RandomContent(512, 80)).ok());
  const std::string journal_path =
      StrCat(testing::TempDir(), "/cyrus-dedup-putwal-", ::getpid(), ".log");
  std::remove(journal_path.c_str());
  {
    auto journal_or = PutJournal::Open(journal_path);
    ASSERT_TRUE(journal_or.ok()) << journal_or.status();
    PutJournal& journal = **journal_or;
    const std::string version_id = Id("crashed-put-version").ToHex();
    ASSERT_TRUE(journal.BeginIntent(version_id, "t/crash/file.bin").ok());
    for (uint32_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(journal
                      .AppendShare(version_id, "csp" + std::to_string(i),
                                   shared_objects[i])
                      .ok());
    }
    ASSERT_TRUE(journal.AppendShare(version_id, "csp3", orphan).ok());
  }

  CyrusConfig config = ConvergentConfig("crash", &index);
  config.journal_path = journal_path;
  TestCloud cloud = MakeCloud(std::move(config), csps);
  auto report = cloud.client->RecoverFromJournal();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rolled_back, 1u);
  // Rollback deleted only the truly unreferenced object; the three the
  // shared index records survive for the tenant that reads through them.
  EXPECT_EQ(report->orphan_shares_deleted, 1u);
  EXPECT_FALSE(csps[3]->Download(orphan).ok());
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(csps[i]->Download(shared_objects[i]).ok()) << shared_objects[i];
  }
  std::remove(journal_path.c_str());
}

TEST(DedupE2ETest, GatewayChargesLogicalBytesAndReportsDedup) {
  auto index_or = ShareIndex::Open(ShareIndexOptions{});
  ASSERT_TRUE(index_or.ok());
  ShareIndex& index = **index_or;

  auto csps = MakeCsps();
  std::vector<std::unique_ptr<CyrusClient>> shard_clients;
  for (int s = 0; s < 2; ++s) {
    TestCloud shard = MakeCloud(
        ConvergentConfig(StrCat("shard-", s), &index), csps);
    shard_clients.push_back(std::move(shard.client));
  }
  GatewayOptions options;
  auto gateway_or = GatewayService::Create(options, std::move(shard_clients));
  ASSERT_TRUE(gateway_or.ok()) << gateway_or.status();
  GatewayService& gateway = **gateway_or;
  ASSERT_TRUE(gateway.RegisterTenant("acme").ok());
  ASSERT_TRUE(gateway.RegisterTenant("globex").ok());

  const Bytes shared_doc = RandomContent(24 * 1024, 41);
  ASSERT_TRUE(gateway.Put("acme", "handbook.pdf", shared_doc).ok());
  ASSERT_TRUE(gateway.Put("globex", "handbook.pdf", shared_doc).ok());

  const GatewayStats stats = gateway.Stats();
  ASSERT_TRUE(stats.dedup_enabled);
  // Each tenant is billed the full logical size...
  EXPECT_EQ(stats.tenant_stored_bytes.at("acme"), shared_doc.size());
  EXPECT_EQ(stats.tenant_stored_bytes.at("globex"), shared_doc.size());
  // ...while the deployment stores the bytes once.
  EXPECT_EQ(stats.dedup_unique_bytes, stats.dedup_logical_bytes / 2);
  EXPECT_NEAR(stats.dedup_ratio, 2.0, 0.01);
}

}  // namespace
}  // namespace cyrus
