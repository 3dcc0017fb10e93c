// End-to-end tests of CyrusClient against simulated heterogeneous CSPs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "src/chunker/chunker.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/crypto/sha1.h"
#include "src/meta/metadata.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "tests/plan_oracle.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 5;

struct TestCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

CyrusConfig SmallConfig(std::string client_id = "device-1") {
  CyrusConfig config;
  config.client_id = std::move(client_id);
  config.key_string = "test key material";
  config.t = 2;
  config.epsilon = 1e-4;
  config.default_failure_prob = 0.01;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  return config;
}

// Builds a fresh client over existing CSPs (or new ones if none given).
TestCloud MakeCloud(CyrusConfig config = SmallConfig(),
                    std::vector<std::shared_ptr<SimulatedCsp>> csps = {}) {
  TestCloud cloud;
  if (csps.empty()) {
    for (int i = 0; i < kNumCsps; ++i) {
      SimulatedCspOptions o;
      o.id = "csp" + std::to_string(i);
      o.naming = (i % 2 == 0) ? NamingPolicy::kNameKeyed : NamingPolicy::kIdKeyed;
      cloud.csps.push_back(std::make_shared<SimulatedCsp>(o));
    }
  } else {
    cloud.csps = std::move(csps);
  }
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (size_t i = 0; i < cloud.csps.size(); ++i) {
    CspProfile profile;
    profile.rtt_ms = 100 + 10.0 * i;
    profile.download_bytes_per_sec = (i < 2) ? 15e6 : 2e6;
    profile.upload_bytes_per_sec = profile.download_bytes_per_sec / 2;
    auto added = cloud.client->AddCsp(cloud.csps[i], profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

TEST(ClientTest, CreateRejectsBadConfig) {
  CyrusConfig bad = SmallConfig();
  bad.t = 0;
  EXPECT_FALSE(CyrusClient::Create(bad).ok());
  bad = SmallConfig();
  bad.epsilon = 2.0;
  EXPECT_FALSE(CyrusClient::Create(bad).ok());
  bad = SmallConfig();
  bad.key_string.clear();
  EXPECT_FALSE(CyrusClient::Create(bad).ok());
}

TEST(ClientTest, AddCspRejectsBadToken) {
  TestCloud cloud = MakeCloud();
  auto extra = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"extra"});
  auto added = cloud.client->AddCsp(extra, CspProfile{}, Credentials{"wrong"});
  EXPECT_EQ(added.status().code(), StatusCode::kPermissionDenied);
}

TEST(ClientTest, PutGetRoundTrip) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(20 * 1024, 1);
  auto put = cloud.client->Put("report.pdf", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_GT(put->total_chunks, 0u);
  EXPECT_EQ(put->new_chunks, put->total_chunks);
  EXPECT_EQ(put->version_id, ComputeVersionId(ReferenceContentId(SmallConfig().chunker, content),
                                              Sha1Digest{}, "report.pdf"));

  auto get = cloud.client->Get("report.pdf");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_FALSE(get->had_conflicts);
}

TEST(ClientTest, GetMissingFileFails) {
  TestCloud cloud = MakeCloud();
  EXPECT_EQ(cloud.client->Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(ClientTest, EmptyFileRoundTrips) {
  TestCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("empty", Bytes{}).ok());
  auto get = cloud.client->Get("empty");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_TRUE(get->content.empty());
}

TEST(ClientTest, UnchangedPutIsNoop) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(4096, 2);
  ASSERT_TRUE(cloud.client->Put("f", content).ok());
  auto again = cloud.client->Put("f", content);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->unchanged);
  EXPECT_EQ(again->transfer.records.size(), 0u);
}

TEST(ClientTest, NoSingleCspCanReconstruct) {
  // The privacy core: with t = 2, no single CSP's objects contain enough
  // to recover any chunk, and none of the stored bytes appear verbatim.
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 3);
  ASSERT_TRUE(cloud.client->Put("secret", content).ok());
  for (const auto& csp : cloud.csps) {
    auto listing = csp->List("");
    ASSERT_TRUE(listing.ok());
    for (const ObjectInfo& object : *listing) {
      auto data = csp->Download(object.name);
      ASSERT_TRUE(data.ok());
      if (data->size() < 16) {
        continue;
      }
      // No 16-byte window of any stored object appears in the plaintext.
      const Bytes window(data->begin(), data->begin() + 16);
      auto it = std::search(content.begin(), content.end(), window.begin(), window.end());
      EXPECT_EQ(it, content.end()) << "plaintext leaked to " << csp->id();
    }
  }
}

TEST(ClientTest, SharesSpreadAcrossAtLeastNCsps) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(16 * 1024, 4);
  auto put = cloud.client->Put("f", content);
  ASSERT_TRUE(put.ok());
  size_t csps_holding_data = 0;
  for (const auto& csp : cloud.csps) {
    if (csp->used_bytes() > 0) {
      ++csps_holding_data;
    }
  }
  EXPECT_GE(csps_holding_data, put->n);
}

TEST(ClientTest, DeduplicationSkipsStoredChunks) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(32 * 1024, 5);
  ASSERT_TRUE(cloud.client->Put("original", content).ok());
  uint64_t bytes_after_first = 0;
  for (const auto& csp : cloud.csps) {
    bytes_after_first += csp->used_bytes();
  }
  // The same bytes under a different name: all chunks dedup.
  auto put = cloud.client->Put("copy", content);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->new_chunks, 0u);
  EXPECT_EQ(put->dedup_chunks, put->total_chunks);
  uint64_t bytes_after_second = 0;
  for (const auto& csp : cloud.csps) {
    bytes_after_second += csp->used_bytes();
  }
  // Only metadata was added - far less than re-scattering the shares
  // (which would have stored ~2x the content again under (t=2, n=4)).
  // The envelope carries one 20-byte digest per placed share since
  // metadata v3, so it is bigger than the pre-digest format but still
  // nowhere near share bytes.
  EXPECT_LT(bytes_after_second - bytes_after_first, content.size());
  EXPECT_EQ(put->uploaded_share_bytes, 0u);
  // And the copy still reads back correctly.
  auto get = cloud.client->Get("copy");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, PartialEditOnlyUploadsChangedChunks) {
  TestCloud cloud = MakeCloud();
  Bytes content = RandomContent(64 * 1024, 6);
  ASSERT_TRUE(cloud.client->Put("doc", content).ok());
  content[content.size() / 2] ^= 0xFF;  // one-byte edit
  auto put = cloud.client->Put("doc", content);
  ASSERT_TRUE(put.ok());
  EXPECT_GT(put->dedup_chunks, 0u);
  EXPECT_LE(put->new_chunks, 3u);
  auto get = cloud.client->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, VersioningAndRestore) {
  TestCloud cloud = MakeCloud();
  const Bytes v1 = RandomContent(4096, 7);
  const Bytes v2 = RandomContent(5000, 8);
  cloud.client->set_time(1.0);
  ASSERT_TRUE(cloud.client->Put("doc", v1).ok());
  cloud.client->set_time(2.0);
  ASSERT_TRUE(cloud.client->Put("doc", v2).ok());

  auto versions = cloud.client->Versions("doc");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0]->content_id, ReferenceContentId(SmallConfig().chunker, v2));
  EXPECT_EQ((*versions)[1]->content_id, ReferenceContentId(SmallConfig().chunker, v1));

  // Current head is v2; the old version remains retrievable.
  auto current = cloud.client->Get("doc");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->content, v2);
  auto old_version = cloud.client->GetVersion("doc", (*versions)[1]->id);
  ASSERT_TRUE(old_version.ok());
  EXPECT_EQ(old_version->content, v1);
}

TEST(ClientTest, DeleteHidesButPreservesHistory) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(4096, 9);
  cloud.client->set_time(1.0);
  ASSERT_TRUE(cloud.client->Put("doc", content).ok());
  cloud.client->set_time(2.0);
  ASSERT_TRUE(cloud.client->Delete("doc").ok());

  EXPECT_EQ(cloud.client->Get("doc").status().code(), StatusCode::kNotFound);
  auto listing = cloud.client->List("");
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->empty());

  // Undelete: the history survives and the old content is retrievable.
  auto versions = cloud.client->Versions("doc");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  auto restored = cloud.client->GetVersion("doc", (*versions)[1]->id);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->content, content);
}

TEST(ClientTest, DeleteMissingFileFails) {
  TestCloud cloud = MakeCloud();
  EXPECT_EQ(cloud.client->Delete("ghost").code(), StatusCode::kNotFound);
}

TEST(ClientTest, ListFiltersAndDescribes) {
  TestCloud cloud = MakeCloud();
  cloud.client->set_time(5.0);
  ASSERT_TRUE(cloud.client->Put("docs/a.txt", RandomContent(1000, 10)).ok());
  ASSERT_TRUE(cloud.client->Put("docs/b.txt", RandomContent(2000, 11)).ok());
  ASSERT_TRUE(cloud.client->Put("pics/c.jpg", RandomContent(3000, 12)).ok());

  auto docs = cloud.client->List("docs/");
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 2u);
  EXPECT_EQ((*docs)[0].name, "docs/a.txt");
  EXPECT_EQ((*docs)[0].size, 1000u);
  EXPECT_DOUBLE_EQ((*docs)[0].modified_time, 5.0);
  EXPECT_FALSE((*docs)[0].conflicted);

  auto all = cloud.client->List("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST(ClientTest, SecondClientSeesFirstClientsFiles) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(12 * 1024, 13);
  ASSERT_TRUE(cloud.client->Put("shared.doc", content).ok());

  // A second device with the same key string over the same CSP accounts.
  TestCloud device2 = MakeCloud(SmallConfig("device-2"), cloud.csps);
  auto get = device2.client->Get("shared.doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, WrongKeyCannotReadData) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 14);
  ASSERT_TRUE(cloud.client->Put("private", content).ok());

  CyrusConfig config = SmallConfig("intruder");
  config.key_string = "some other key";
  TestCloud intruder = MakeCloud(std::move(config), cloud.csps);
  // With a different key the metadata shares do not even decode into valid
  // metadata, so the file is invisible (and certainly unreadable).
  auto get = intruder.client->Get("private");
  EXPECT_FALSE(get.ok());
}

TEST(ClientTest, RecoverRebuildsStateFromClouds) {
  TestCloud cloud = MakeCloud();
  const Bytes a = RandomContent(10 * 1024, 15);
  const Bytes b = RandomContent(6 * 1024, 16);
  ASSERT_TRUE(cloud.client->Put("a", a).ok());
  ASSERT_TRUE(cloud.client->Put("b", b).ok());

  // Fresh device: empty local state, then recover(s).
  TestCloud fresh = MakeCloud(SmallConfig("fresh-device"), cloud.csps);
  ASSERT_TRUE(fresh.client->Recover().ok());
  EXPECT_EQ(fresh.client->tree().size(), cloud.client->tree().size());
  EXPECT_EQ(fresh.client->chunk_table().size(), cloud.client->chunk_table().size());
  auto get = fresh.client->Get("a");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, a);
}

TEST(ClientTest, RecoverWorksWithDifferentCspRegistrationOrder) {
  // Registry indices are client-local; metadata carries stable connector
  // names. A fresh device registering the same accounts in a different
  // order must still resolve every share location.
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(12 * 1024, 70);
  ASSERT_TRUE(cloud.client->Put("portable", content).ok());

  std::vector<std::shared_ptr<SimulatedCsp>> reversed(cloud.csps.rbegin(),
                                                      cloud.csps.rend());
  TestCloud fresh = MakeCloud(SmallConfig("reordered-device"), reversed);
  ASSERT_TRUE(fresh.client->Recover().ok());
  auto get = fresh.client->Get("portable");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, FreshDeviceRecoversAfterMigration) {
  // After a CSP removal and lazy migration, the re-published metadata must
  // be readable by a brand-new device (no stale share objects may survive
  // to poison the decode).
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(10 * 1024, 71);
  ASSERT_TRUE(cloud.client->Put("survivor", content).ok());
  ASSERT_TRUE(cloud.client->RemoveCsp(0).ok());
  auto migrated = cloud.client->Get("survivor");
  ASSERT_TRUE(migrated.ok()) << migrated.status();

  std::vector<std::shared_ptr<SimulatedCsp>> remaining(cloud.csps.begin() + 1,
                                                       cloud.csps.end());
  TestCloud fresh = MakeCloud(SmallConfig("post-migration-device"), remaining);
  ASSERT_TRUE(fresh.client->Recover().ok());
  auto get = fresh.client->Get("survivor");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, ConcurrentEditsConflictDetectedAndResolved) {
  // Two devices sync, then both edit the same file: Figure 8's diverged-
  // versions conflict must surface on the next download. Resolving and
  // deleting publish metadata, which device 1's registry books.
  obs::MetricsRegistry registry;
  CyrusConfig config = SmallConfig();
  config.metrics = &registry;
  TestCloud cloud = MakeCloud(std::move(config));
  obs::Counter* meta_uploads = registry.GetCounter(
      "cyrus_transfer_requests_total", {{"kind", "PUT_META"}, {"result", "ok"}});
  const Bytes base = RandomContent(8 * 1024, 17);
  cloud.client->set_time(1.0);
  ASSERT_TRUE(cloud.client->Put("shared", base).ok());

  TestCloud device2 = MakeCloud(SmallConfig("device-2"), cloud.csps);
  ASSERT_TRUE(device2.client->SyncMetadata().ok());

  const Bytes edit1 = RandomContent(8 * 1024, 18);
  const Bytes edit2 = RandomContent(8 * 1024, 19);
  cloud.client->set_time(2.0);
  device2.client->set_time(2.5);
  ASSERT_TRUE(cloud.client->Put("shared", edit1).ok());
  auto put2 = device2.client->Put("shared", edit2);
  ASSERT_TRUE(put2.ok());

  // Device 1 downloads: it sees both heads, flags the conflict, and serves
  // the newest edit.
  auto get = cloud.client->Get("shared");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_TRUE(get->had_conflicts);
  ASSERT_EQ(get->conflicts.size(), 1u);
  EXPECT_EQ(get->conflicts[0].type, ConflictType::kDivergedVersions);
  EXPECT_EQ(get->content, edit2);  // newest by mtime

  // Resolve: keep edit2; edit1 is renamed, not lost.
  const uint64_t before_resolve = meta_uploads->value();
  ASSERT_TRUE(cloud.client->ResolveConflict("shared", put2->version_id).ok());
  EXPECT_GT(meta_uploads->value(), before_resolve);
  auto after = cloud.client->Get("shared");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->had_conflicts);
  EXPECT_EQ(after->content, edit2);

  auto listing = cloud.client->List("");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 2u);  // "shared" + the renamed conflict copy
  bool found_rename = false;
  for (const FileListing& f : *listing) {
    if (f.name != "shared") {
      found_rename = true;
      auto rescued = cloud.client->Get(f.name);
      ASSERT_TRUE(rescued.ok());
      EXPECT_EQ(rescued->content, edit1);
      const uint64_t before_delete = meta_uploads->value();
      ASSERT_TRUE(cloud.client->Delete(f.name).ok());
      EXPECT_GT(meta_uploads->value(), before_delete);
    }
  }
  EXPECT_TRUE(found_rename);
}

TEST(ClientTest, SameNameCreationConflict) {
  // Figure 8 left: both devices create the same name before ever syncing.
  TestCloud cloud = MakeCloud();
  TestCloud device2 = MakeCloud(SmallConfig("device-2"), cloud.csps);
  cloud.client->set_time(1.0);
  device2.client->set_time(1.5);
  ASSERT_TRUE(cloud.client->Put("new.txt", RandomContent(2048, 20)).ok());
  ASSERT_TRUE(device2.client->Put("new.txt", RandomContent(2048, 21)).ok());

  auto get = cloud.client->Get("new.txt");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_TRUE(get->had_conflicts);
  ASSERT_EQ(get->conflicts.size(), 1u);
  EXPECT_EQ(get->conflicts[0].type, ConflictType::kSameName);
}

TEST(ClientTest, ListAndVersionsAgreeWithGetOnTiedHeads) {
  // Two devices create one name at the same virtual time. Every view of
  // the name must pick the same head as Get: the modified_time tie goes to
  // the larger version id.
  TestCloud cloud = MakeCloud();
  TestCloud device2 = MakeCloud(SmallConfig("device-2"), cloud.csps);
  cloud.client->set_time(1.0);
  device2.client->set_time(1.0);
  auto put1 = cloud.client->Put("tie.txt", RandomContent(1000, 90));
  auto put2 = device2.client->Put("tie.txt", RandomContent(3000, 91));
  ASSERT_TRUE(put1.ok() && put2.ok());
  const Sha1Digest winner = std::max(put1->version_id, put2->version_id);

  for (CyrusClient* client : {cloud.client.get(), device2.client.get()}) {
    auto get = client->Get("tie.txt");
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_TRUE(get->had_conflicts);
    EXPECT_EQ(get->version_id, winner);

    auto listing = client->List("");
    ASSERT_TRUE(listing.ok()) << listing.status();
    ASSERT_EQ(listing->size(), 1u);
    EXPECT_EQ((*listing)[0].size, get->content.size());
    EXPECT_TRUE((*listing)[0].conflicted);

    auto versions = client->Versions("tie.txt");
    ASSERT_TRUE(versions.ok()) << versions.status();
    ASSERT_FALSE(versions->empty());
    EXPECT_EQ((*versions)[0]->id, get->version_id);
  }
}

TEST(ClientTest, DownloadSurvivesFewerThanNMinusTFailures) {
  // With (t=2, n>=3), one CSP outage must not block reads.
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(16 * 1024, 22);
  auto put = cloud.client->Put("resilient", content);
  ASSERT_TRUE(put.ok());
  ASSERT_GE(put->n, 3u);

  cloud.csps[0]->set_available(false);
  auto get = cloud.client->Get("resilient");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, LazyMigrationAfterCspRemoval) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(16 * 1024, 23);
  ASSERT_TRUE(cloud.client->Put("doc", content).ok());

  // Remove a CSP that holds shares; the next Get migrates them.
  int victim = -1;
  for (size_t i = 0; i < cloud.csps.size(); ++i) {
    if (cloud.csps[i]->used_bytes() > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  std::set<std::pair<Sha1Digest, uint32_t>> before;
  for (const Sha1Digest& id : cloud.client->chunk_table().AllChunkIds()) {
    for (const ChunkShare& s : cloud.client->chunk_table().Find(id)->shares) {
      before.emplace(id, s.share_index);
    }
  }
  ASSERT_TRUE(cloud.client->RemoveCsp(victim).ok());

  auto get = cloud.client->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_GT(get->migrated_shares, 0u);

  // Every migrated share carries the digest of the bytes its CSP stores, in
  // the chunk table and in the republished version record (the wire form,
  // projected from the table).
  const LocalCacheSnapshot exported = cloud.client->ExportCache();
  const FileVersion* version = nullptr;
  for (const FileVersion& wire : exported.versions) {
    if (wire.id == get->version_id) {
      version = &wire;
    }
  }
  ASSERT_NE(version, nullptr);
  size_t migrated = 0;
  for (const Sha1Digest& id : cloud.client->chunk_table().AllChunkIds()) {
    const ChunkEntry* entry = cloud.client->chunk_table().Find(id);
    for (const ChunkShare& s : entry->shares) {
      if (before.count({id, s.share_index}) > 0) {
        continue;
      }
      ++migrated;
      ASSERT_TRUE(s.has_digest()) << "migrated share " << s.share_index;
      auto stored = cloud.csps[s.csp]->Download(ShareName(id, s.share_index, entry->t));
      ASSERT_TRUE(stored.ok()) << stored.status();
      EXPECT_EQ(s.digest, Sha1::Hash(*stored));
      for (const ChunkRecord& chunk : version->chunks) {
        if (chunk.id == id) {
          const Sha1Digest* recorded = chunk.FindShareDigest(s.share_index);
          ASSERT_NE(recorded, nullptr);
          EXPECT_EQ(*recorded, s.digest);
        }
      }
    }
  }
  EXPECT_EQ(migrated, get->migrated_shares);

  // After migration no chunk lists the removed CSP any more, and a second
  // download performs no further migrations.
  EXPECT_TRUE(cloud.client->chunk_table().ChunksOnCsp(victim).empty());
  auto second = cloud.client->Get("doc");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->migrated_shares, 0u);
}

TEST(ClientTest, FailedCspRecoversAndServesAgain) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 24);
  ASSERT_TRUE(cloud.client->Put("doc", content).ok());
  ASSERT_TRUE(cloud.client->MarkCspFailed(1).ok());
  ASSERT_TRUE(cloud.client->Get("doc").ok());
  ASSERT_TRUE(cloud.client->MarkCspRecovered(1).ok());
  ASSERT_TRUE(cloud.client->registry().state(1).ok());
  EXPECT_EQ(*cloud.client->registry().state(1), CspState::kActive);
  auto get = cloud.client->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, CurrentNRespondsToEpsilon) {
  CyrusConfig strict = SmallConfig();
  strict.epsilon = 1e-7;  // with p = 0.01 and 5 CSPs this forces n = 5
  TestCloud strict_cloud = MakeCloud(std::move(strict));
  CyrusConfig loose = SmallConfig();
  loose.epsilon = 1e-2;
  TestCloud loose_cloud = MakeCloud(std::move(loose));
  auto n_strict = strict_cloud.client->CurrentN();
  auto n_loose = loose_cloud.client->CurrentN();
  ASSERT_TRUE(n_strict.ok()) << n_strict.status();
  ASSERT_TRUE(n_loose.ok());
  EXPECT_GT(*n_strict, *n_loose);
}

TEST(ClientTest, ClusterAwarePlacementRespectsClusters) {
  CyrusConfig config = SmallConfig();
  config.cluster_aware = true;
  TestCloud cloud = MakeCloud(std::move(config));
  // CSPs 0 and 1 share platform 0; 2, 3, 4 are platforms 1, 2, 3.
  ASSERT_TRUE(cloud.client->AssignClusters({0, 0, 1, 2, 3}).ok());
  const Bytes content = RandomContent(16 * 1024, 25);
  auto put = cloud.client->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();

  // No chunk may have shares on both CSP 0 and CSP 1.
  const ChunkTable& table = cloud.client->chunk_table();
  size_t inspected = 0;
  for (const Sha1Digest& id : table.AllChunkIds()) {
    bool on0 = false, on1 = false;
    for (const ChunkShare& share : table.Find(id)->shares) {
      on0 |= share.csp == 0;
      on1 |= share.csp == 1;
      ++inspected;
    }
    EXPECT_FALSE(on0 && on1) << "chunk on both CSPs of platform 0";
  }
  EXPECT_GT(inspected, 0u);
}

TEST(ClientTest, UploadFailureFallsBackToAnotherCsp) {
  TestCloud cloud = MakeCloud();
  // Take one CSP down *before* the upload; Put must still succeed by
  // routing its shares elsewhere, and the CSP gets marked failed.
  cloud.csps[2]->set_available(false);
  const Bytes content = RandomContent(16 * 1024, 27);
  auto put = cloud.client->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();
  auto get = cloud.client->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(cloud.csps[2]->used_bytes(), 0u);
}

TEST(ClientTest, QuotaFullCspSkippedButNotFailed) {
  // A provider at quota refuses new shares but is not an outage: the
  // client must route the share elsewhere and keep the CSP active (its
  // existing shares are still readable).
  TestCloud cloud = MakeCloud();
  // Fill csp3 almost completely.
  SimulatedCspOptions tiny;
  tiny.id = "tiny";
  tiny.quota_bytes = 100;
  auto small_csp = std::make_shared<SimulatedCsp>(tiny);
  CspProfile profile;
  profile.download_bytes_per_sec = 2e6;
  profile.upload_bytes_per_sec = 1e6;
  auto added = cloud.client->AddCsp(small_csp, profile, Credentials{"token"});
  ASSERT_TRUE(added.ok());

  const Bytes content = RandomContent(32 * 1024, 60);
  auto put = cloud.client->Put("big", content);
  ASSERT_TRUE(put.ok()) << put.status();
  auto get = cloud.client->Get("big");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  // The tiny CSP stays active despite refusing shares.
  EXPECT_EQ(*cloud.client->registry().state(*added), CspState::kActive);
}

TEST(ClientTest, NoChunkStoresTwoSharesOnOneCsp) {
  // Even with failovers in play, a chunk must never have two shares on the
  // same provider (that would halve the effective privacy threshold).
  TestCloud cloud = MakeCloud();
  cloud.csps[1]->set_available(false);  // force failover paths
  const Bytes content = RandomContent(48 * 1024, 61);
  auto put = cloud.client->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();
  const ChunkTable& table = cloud.client->chunk_table();
  size_t inspected = 0;
  for (const Sha1Digest& id : table.AllChunkIds()) {
    std::set<int> csps;
    for (const ChunkShare& share : table.Find(id)->shares) {
      EXPECT_TRUE(csps.insert(share.csp).second)
          << "chunk " << id.ToHex() << " has two shares on CSP " << share.csp;
      ++inspected;
    }
  }
  EXPECT_GT(inspected, 0u);
}

TEST(ClientTest, CorruptedShareDetectedCorrectedAndRepaired) {
  // A provider silently corrupts a stored share (bit rot / tampering). The
  // download detects the bad decode via the chunk hash, recovers through
  // the error-correcting decode, and rewrites the corrupted share in place.
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 62);
  auto put = cloud.client->Put("fragile", content);
  ASSERT_TRUE(put.ok());
  ASSERT_GE(put->n, 4u);  // e_max >= 1 for t = 2

  // Corrupt every data-share object on one CSP that holds shares.
  int corrupted_csp = -1;
  for (size_t i = 0; i < cloud.csps.size() && corrupted_csp < 0; ++i) {
    auto listing = cloud.csps[i]->List("");
    ASSERT_TRUE(listing.ok());
    for (const ObjectInfo& object : *listing) {
      if (!StartsWith(object.name, "meta-")) {
        ASSERT_TRUE(cloud.csps[i]->CorruptObject(object.name).ok());
        corrupted_csp = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(corrupted_csp, 0);

  auto get = cloud.client->Get("fragile");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);

  // The corrupted shares were repaired in place: a second read decodes
  // cleanly even if forced through the previously corrupted CSP.
  auto again = cloud.client->Get("fragile");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->content, content);
}

TEST(ClientTest, ImportForeignObjectPullsPlaintextIntoCyrus) {
  // The trial's most-requested feature (§7.5): a file the user already
  // keeps in plaintext on one provider becomes a CYRUS file; the plaintext
  // original is deleted only after the CYRUS copy is durable.
  TestCloud cloud = MakeCloud();
  const Bytes legacy = RandomContent(20 * 1024, 63);
  ASSERT_TRUE(cloud.csps[0]->Upload("vacation.jpg", legacy).ok());

  auto imported = cloud.client->ImportForeignObject(0, "vacation.jpg",
                                                    "photos/vacation.jpg",
                                                    /*delete_original=*/true);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_GT(imported->new_chunks, 0u);
  // The plaintext original is gone; the CYRUS copy reads back bit-exact.
  EXPECT_EQ(cloud.csps[0]->Download("vacation.jpg").status().code(),
            StatusCode::kNotFound);
  auto get = cloud.client->Get("photos/vacation.jpg");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->content, legacy);
}

TEST(ClientTest, ImportMissingObjectFails) {
  TestCloud cloud = MakeCloud();
  EXPECT_EQ(cloud.client->ImportForeignObject(0, "ghost", "g").status().code(),
            StatusCode::kNotFound);
}

// (connector name, share index) of every share the table lists for a chunk.
std::set<std::pair<std::string, uint32_t>> TableLayout(const CyrusClient& client,
                                                       const Sha1Digest& chunk_id) {
  std::set<std::pair<std::string, uint32_t>> layout;
  if (const ChunkEntry* entry = client.chunk_table().Find(chunk_id)) {
    for (const ChunkShare& share : entry->shares) {
      layout.emplace(*client.registry().name(share.csp), share.share_index);
    }
  }
  return layout;
}

// Two files share one chunk; lazy migration while reading one of them
// moves a share. Every version's published metadata must carry the moved
// layout - not just the version that was read - so a fresh device learns
// where the shares are now.
TEST(ClientTest, RepublishCarriesTheTableLayoutOfASharedChunk) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(120, 71);
  auto put_a = cloud.client->Put("a", content);
  ASSERT_TRUE(put_a.ok()) << put_a.status();
  ASSERT_EQ(put_a->total_chunks, 1u);
  ASSERT_TRUE(cloud.client->Put("b", content).ok());
  ASSERT_EQ(cloud.client->chunk_table().size(), 1u);
  const Sha1Digest chunk_id = cloud.client->chunk_table().AllChunkIds().front();

  const int holder = cloud.client->chunk_table().Find(chunk_id)->shares.front().csp;
  ASSERT_TRUE(cloud.client->MarkCspFailed(holder).ok());
  auto get = cloud.client->Get("b");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  ASSERT_GT(get->migrated_shares, 0u);

  const auto table_layout = TableLayout(*cloud.client, chunk_id);
  size_t versions = 0;
  for (const FileVersion& wire : cloud.client->ExportCache().versions) {
    std::set<std::pair<std::string, uint32_t>> rows;
    for (const ShareLocation& loc : wire.SharesOfChunk(chunk_id)) {
      rows.emplace(wire.csp_directory.at(loc.csp), loc.share_index);
    }
    EXPECT_EQ(rows, table_layout) << "version of " << wire.file_name;
    ++versions;
  }
  EXPECT_EQ(versions, 2u);

  ASSERT_TRUE(cloud.client->RebalanceMetadata().ok());
  TestCloud fresh = MakeCloud(SmallConfig("fresh-device"), cloud.csps);
  ASSERT_TRUE(fresh.client->Recover().ok());
  EXPECT_EQ(TableLayout(*fresh.client, chunk_id), table_layout);
}

TEST(ClientTest, RebalanceMetadataCoversNewCsp) {
  // A CSP added after some uploads holds no metadata shares until the user
  // opts into rebalancing (paper §5.5); afterwards a device using only the
  // *newest* t CSPs plus one old one can still recover.
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 64);
  ASSERT_TRUE(cloud.client->Put("doc", content).ok());

  auto newcomer = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"newcomer"});
  CspProfile profile;
  profile.download_bytes_per_sec = 2e6;
  profile.upload_bytes_per_sec = 1e6;
  ASSERT_TRUE(cloud.client->AddCsp(newcomer, profile, Credentials{"token"}).ok());
  EXPECT_EQ(newcomer->used_bytes(), 0u);  // nothing there yet

  ASSERT_TRUE(cloud.client->RebalanceMetadata().ok());
  EXPECT_GT(newcomer->used_bytes(), 0u);  // now holds metadata shares
  auto listing = newcomer->List("meta-");
  ASSERT_TRUE(listing.ok());
  EXPECT_FALSE(listing->empty());
}

TEST(ClientTest, PutCreatesTheScatterCodecOncePerFile) {
  // The dispersal matrix depends only on (key, t, n); building it per chunk
  // was pure per-chunk overhead. A multi-chunk Put must construct exactly
  // one codec, and a second Put constructs exactly one more.
  obs::MetricsRegistry registry;
  CyrusConfig config = SmallConfig();
  config.metrics = &registry;
  TestCloud cloud = MakeCloud(std::move(config));
  obs::Counter* creates = registry.GetCounter("cyrus_client_codec_creates_total", {},
                                              "Secret-sharing codecs constructed for "
                                              "chunk scatter (one per Put, not per chunk)");
  ASSERT_EQ(creates->value(), 0u);

  const Bytes content = RandomContent(24 * 1024, 77);  // many ~1 KB chunks
  auto put = cloud.client->Put("many-chunks", content);
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_GT(put->new_chunks, 4u) << "content did not split into enough chunks";
  EXPECT_EQ(creates->value(), 1u);

  ASSERT_TRUE(cloud.client->Put("more-chunks", RandomContent(16 * 1024, 78)).ok());
  EXPECT_EQ(creates->value(), 2u);

  auto get = cloud.client->Get("many-chunks");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

// A selector that always fails, to exercise the reader's fallback walk.
class FailingSelector : public DownloadSelector {
 public:
  std::string_view name() const override { return "failing"; }
  Result<DownloadAssignment> Select(const DownloadProblem&) override {
    return InternalError("selector unavailable");
  }
};

TEST(ClientTest, SelectorErrorFallsBackAndIsCounted) {
  obs::MetricsRegistry registry;
  CyrusConfig config = SmallConfig();
  config.metrics = &registry;
  TestCloud cloud = MakeCloud(std::move(config));
  const Bytes content = RandomContent(8 * 1024, 31);
  ASSERT_TRUE(cloud.client->Put("fallback", content).ok());
  cloud.client->set_download_selector(std::make_unique<FailingSelector>());
  obs::Counter* errors = registry.GetCounter("cyrus_download_select_fallbacks_total",
                                             {{"reason", "error"}});
  obs::Counter* mixed_t = registry.GetCounter("cyrus_download_select_fallbacks_total",
                                              {{"reason", "mixed_t"}});
  const uint64_t before = errors->value();

  auto get = cloud.client->Get("fallback");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(errors->value() - before, 1u);
  EXPECT_EQ(mixed_t->value(), 0u);
}

// Records the CSP rates each Select is handed, then solves as usual.
class RecordingSelector : public DownloadSelector {
 public:
  explicit RecordingSelector(std::vector<std::vector<double>>* seen) : seen_(seen) {}
  std::string_view name() const override { return "recording"; }
  Result<DownloadAssignment> Select(const DownloadProblem& problem) override {
    seen_->push_back(problem.csp_bandwidth);
    return optimal_.Select(problem);
  }

 private:
  std::vector<std::vector<double>>* seen_;
  OptimalDownloadSelector optimal_;
};

// In-memory CSPs answer far inside their 100+ ms profile RTTs, so no
// transfer runs past its profile: the learned rates Algorithm 1 gets are
// then the profile rates, bit for bit.
TEST(ClientTest, ZeroExcessHandsTheSelectorTheProfileRates) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(8 * 1024, 37);
  ASSERT_TRUE(cloud.client->Put("profiled", content).ok());
  std::vector<std::vector<double>> seen;
  cloud.client->set_download_selector(std::make_unique<RecordingSelector>(&seen));
  for (int round = 0; round < 2; ++round) {
    auto get = cloud.client->Get("profiled");
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_EQ(get->content, content);
  }

  std::vector<double> profile_rates;
  for (int csp = 0; csp < kNumCsps; ++csp) {
    EXPECT_EQ(cloud.client->availability_monitor().MedianExcessSeconds(csp), 0.0);
    profile_rates.push_back(cloud.client->registry().profile(csp)->download_bytes_per_sec);
  }
  ASSERT_EQ(seen.size(), 2u);
  for (const std::vector<double>& rates : seen) {
    EXPECT_EQ(rates, profile_rates);
  }
}

TEST(ClientTest, PipelineMetricsTrackSubmittedChunks) {
  obs::MetricsRegistry registry;
  CyrusConfig config = SmallConfig();
  config.metrics = &registry;
  config.pipeline_window_chunks = 2;
  TestCloud cloud = MakeCloud(std::move(config));
  // The pipeline instruments are process-wide (they live in the default
  // registry inside thread_pool.cc's statics), so assert on deltas.
  obs::Counter* tasks = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_pipeline_tasks_total", {}, "Tasks admitted into ordered pipelines");
  const uint64_t before = tasks->value();
  auto put = cloud.client->Put("pipelined", RandomContent(20 * 1024, 91));
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_GE(tasks->value() - before, put->total_chunks);
}

TEST(ClientTest, WindowOfOneMatchesSequentialSemantics) {
  // pipeline_window_chunks = 1 degrades to strictly sequential chunk
  // handling; the round trip and dedup accounting must be unchanged.
  CyrusConfig config = SmallConfig();
  config.pipeline_window_chunks = 1;
  TestCloud cloud = MakeCloud(std::move(config));
  Bytes content = RandomContent(12 * 1024, 55);
  // Repeat a block so in-file dedup triggers.
  Bytes doubled = content;
  doubled.insert(doubled.end(), content.begin(), content.end());
  auto put = cloud.client->Put("doubled", doubled);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_GT(put->dedup_chunks, 0u);
  auto get = cloud.client->Get("doubled");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, doubled);
}

// A Get reads its chunks in size-sorted groups of min(8 / t, window), one
// multi-lane digest pass per group. Whatever the window, each file reads
// back byte-exact, each chunk downloads exactly t shares, and the Get
// issues the same transfers as a strictly sequential window-1 Get.
TEST(ClientTest, GroupedGetsMatchWindowOneForEveryWindow) {
  TestCloud cloud = MakeCloud();
  const Chunker chunker = Chunker::Create(SmallConfig().chunker).value();
  const Bytes source = RandomContent(96 * 1024, 77);
  const std::vector<ChunkSpan> cuts = chunker.Split(source);
  ASSERT_GE(cuts.size(), 9u);
  std::vector<std::pair<std::string, Bytes>> files;
  for (size_t chunks = 1; chunks <= 9; ++chunks) {
    // A prefix ending at a cut splits into exactly the chunks before it.
    const ChunkSpan& last = cuts[chunks - 1];
    Bytes content(source.begin(),
                  source.begin() + static_cast<ptrdiff_t>(last.offset + last.size));
    // Distinct bytes per file, so no chunk dedups against another file's.
    content[0] ^= static_cast<uint8_t>(chunks);
    const std::string name = StrCat("grouped-", chunks);
    auto put = cloud.client->Put(name, content);
    ASSERT_TRUE(put.ok()) << put.status();
    ASSERT_EQ(put->total_chunks, chunks);
    files.emplace_back(name, std::move(content));
  }

  using Record = std::tuple<TransferKind, int, std::string, uint64_t, bool>;
  auto records_of = [](const TransferReport& report) {
    std::multiset<Record> out;
    for (const TransferRecord& r : report.records) {
      out.emplace(r.kind, r.csp, r.object_name, r.bytes, r.success);
    }
    return out;
  };
  std::map<std::string, std::multiset<Record>> sequential;
  for (uint32_t window : {1u, 3u, 4u, 8u}) {
    cloud.client->set_pipeline_window(window);
    for (size_t f = 0; f < files.size(); ++f) {
      const auto& [name, content] = files[f];
      SCOPED_TRACE(StrCat("window ", window, ", ", f + 1, " chunks"));
      auto get = cloud.client->Get(name);
      ASSERT_TRUE(get.ok()) << get.status();
      EXPECT_EQ(get->content, content);
      EXPECT_EQ(get->chunks_decoded, f + 1);
      EXPECT_EQ(get->transfer.CountOf(TransferKind::kGet), 2 * (f + 1));
      if (window == 1) {
        sequential[name] = records_of(get->transfer);
      } else {
        EXPECT_EQ(records_of(get->transfer), sequential[name]);
      }
    }
  }
  cloud.client->set_pipeline_window(0);
}

TEST(ClientTest, PutReportsTheContentIdOnEveryPath) {
  TestCloud cloud = MakeCloud();
  const Bytes content = RandomContent(4096, 3);
  auto put = cloud.client->Put("f", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_FALSE(put->unchanged);
  const Sha1Digest want = ReferenceContentId(SmallConfig().chunker, content);
  EXPECT_EQ(put->content_id, want);
  auto again = cloud.client->Put("f", content);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->unchanged);
  EXPECT_EQ(again->content_id, want);
}

// --- Puts large enough to be chunked and hashed on the transfer pool ---

// Two minimum segments: the default 4-thread pool cuts this in two, with
// the seam at the middle. A 64 KiB-average chunker keeps it ~130 chunks.
constexpr size_t kSegmentedBytes = 2 * Chunker::kMinSegmentBytes;

CyrusConfig SegmentedConfig() {
  CyrusConfig config = SmallConfig();
  config.chunker.modulus = 64 * 1024;
  config.chunker.min_chunk_size = 16 * 1024;
  config.chunker.max_chunk_size = 256 * 1024;
  return config;
}

size_t SegmentsFor(const CyrusConfig& config, size_t size) {
  ThreadPool pool(config.transfer_concurrency);
  return Chunker::Create(config.chunker).value().Segments(size, &pool);
}

uint64_t TotalUploads(const TestCloud& cloud) {
  uint64_t uploads = 0;
  for (const auto& csp : cloud.csps) {
    uploads += csp->counters().uploads;
  }
  return uploads;
}

std::vector<std::tuple<Sha1Digest, uint64_t, uint64_t>> ChunkList(const CyrusClient& client,
                                                                  const Sha1Digest& version) {
  std::vector<std::tuple<Sha1Digest, uint64_t, uint64_t>> chunks;
  const FileVersion* found = client.tree().Find(version);
  EXPECT_NE(found, nullptr);
  if (found != nullptr) {
    for (const ChunkRecord& chunk : found->chunks) {
      chunks.emplace_back(chunk.id, chunk.offset, chunk.size);
    }
  }
  return chunks;
}

TEST(ClientTest, UnchangedRePutOfSegmentedFileUploadsNothing) {
  const CyrusConfig config = SegmentedConfig();
  ASSERT_EQ(SegmentsFor(config, kSegmentedBytes), 2u);
  TestCloud cloud = MakeCloud(config);
  const Bytes content = RandomContent(kSegmentedBytes, 201);
  auto first = cloud.client->Put("big", content);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->new_chunks, 1u);
  const uint64_t uploads = TotalUploads(cloud);

  auto again = cloud.client->Put("big", content);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->unchanged);
  EXPECT_EQ(again->version_id, first->version_id);
  EXPECT_EQ(again->content_id, ReferenceContentId(config.chunker, content));
  EXPECT_EQ(again->transfer.records.size(), 0u);
  EXPECT_EQ(TotalUploads(cloud), uploads);
}

TEST(ClientTest, SegmentedPutDedupsAChunkRepeatedAcrossTheSeam) {
  const CyrusConfig config = SegmentedConfig();
  ASSERT_EQ(SegmentsFor(config, kSegmentedBytes), 2u);
  TestCloud cloud = MakeCloud(config);
  // One 1 MiB block, once on each side of the seam between the segments:
  // the chunks inside both copies are identical, and the second copy's
  // must dedup against the first's although another task cut them.
  Bytes content = RandomContent(kSegmentedBytes, 202);
  const Bytes block = RandomContent(1 << 20, 203);
  const size_t seam = kSegmentedBytes / 2;
  std::copy(block.begin(), block.end(), content.begin() + seam - (3 << 19));
  std::copy(block.begin(), block.end(), content.begin() + seam + (1 << 19));

  auto put = cloud.client->Put("repeats", content);
  ASSERT_TRUE(put.ok()) << put.status();

  // A serial Split and per-chunk SHA-1 give the same chunks and dedup.
  const std::vector<ChunkSpan> spans = Chunker::Create(config.chunker).value().Split(content);
  std::vector<std::tuple<Sha1Digest, uint64_t, uint64_t>> want;
  std::set<Sha1Digest> seen;
  uint64_t repeats = 0;
  for (const ChunkSpan& span : spans) {
    const Sha1Digest id = Sha1::Hash(ByteSpan(content).subspan(span.offset, span.size));
    want.emplace_back(id, span.offset, span.size);
    repeats += seen.insert(id).second ? 0 : 1;
  }
  ASSERT_GT(repeats, 0u);
  EXPECT_EQ(put->total_chunks, spans.size());
  EXPECT_EQ(put->dedup_chunks, repeats);
  EXPECT_EQ(ChunkList(*cloud.client, put->version_id), want);

  auto get = cloud.client->Get("repeats");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(ClientTest, SerialClientPutsTheSameVersionAsAPooledOne) {
  const CyrusConfig pooled_config = SegmentedConfig();
  CyrusConfig serial_config = SegmentedConfig();
  serial_config.transfer_concurrency = 1;  // no pool: chunked and hashed inline
  const Bytes content = RandomContent(kSegmentedBytes + 12345, 204);
  ASSERT_GT(SegmentsFor(pooled_config, content.size()), 1u);

  TestCloud pooled = MakeCloud(pooled_config);
  TestCloud serial = MakeCloud(serial_config);
  auto pooled_put = pooled.client->Put("same", content);
  ASSERT_TRUE(pooled_put.ok()) << pooled_put.status();
  auto serial_put = serial.client->Put("same", content);
  ASSERT_TRUE(serial_put.ok()) << serial_put.status();

  EXPECT_EQ(pooled_put->version_id, serial_put->version_id);
  EXPECT_EQ(pooled_put->total_chunks, serial_put->total_chunks);
  EXPECT_EQ(ChunkList(*pooled.client, pooled_put->version_id),
            ChunkList(*serial.client, serial_put->version_id));
}

std::vector<std::shared_ptr<SimulatedCsp>> NameKeyedCsps() {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  for (int i = 0; i < kNumCsps; ++i) {
    SimulatedCspOptions o;
    o.id = "csp" + std::to_string(i);
    o.naming = NamingPolicy::kNameKeyed;
    csps.push_back(std::make_shared<SimulatedCsp>(o));
  }
  return csps;
}

// The shares a client uploaded so far, as (object name, bytes) per CSP.
std::vector<std::map<std::string, Bytes>> StoredShares(const TestCloud& cloud) {
  std::vector<std::map<std::string, Bytes>> stored;
  for (const auto& csp : cloud.csps) {
    std::map<std::string, Bytes>& objects = stored.emplace_back();
    auto listing = csp->List("");
    EXPECT_TRUE(listing.ok()) << listing.status();
    for (const ObjectInfo& object : *listing) {
      if (object.name.rfind("meta-", 0) != 0) {
        objects[object.name] = csp->Download(object.name).value();
      }
    }
  }
  return stored;
}

TEST(ClientTest, AdoptingPutMatchesAClientThatSplitsInFull) {
  // Edits, an insert and an append, each Put by a client that adopts its
  // own parent's chunks and by one fed the same parent through ImportCache
  // (so it splits in full). Every version, chunk list and uploaded share
  // must agree.
  Bytes content = RandomContent(48 * 1024, 301);
  // Name-keyed CSPs store each share under its own name, so the two
  // clouds' objects compare by name.
  TestCloud adopting = MakeCloud(SmallConfig("device-1"), NameKeyedCsps());
  ASSERT_TRUE(adopting.client->Put("doc", content).ok());
  const std::vector<std::pair<std::string, std::function<void(Bytes&)>>> edits = {
      {"in-place edit", [](Bytes& b) { b[b.size() / 2] ^= 0xff; }},
      {"insert", [](Bytes& b) {
         const Bytes bytes = RandomContent(333, 302);
         b.insert(b.begin() + b.size() / 3, bytes.begin(), bytes.end());
       }},
      {"append", [](Bytes& b) {
         const Bytes bytes = RandomContent(5000, 303);
         b.insert(b.end(), bytes.begin(), bytes.end());
       }},
  };
  for (const auto& [what, edit] : edits) {
    TestCloud splitting = MakeCloud(SmallConfig("device-1"), NameKeyedCsps());
    ASSERT_TRUE(splitting.client->ImportCache(adopting.client->ExportCache()).ok()) << what;
    edit(content);
    auto adopted = adopting.client->Put("doc", content);
    ASSERT_TRUE(adopted.ok()) << what << ": " << adopted.status();
    auto split = splitting.client->Put("doc", content);
    ASSERT_TRUE(split.ok()) << what << ": " << split.status();

    EXPECT_GT(adopted->adopted_chunks, 0u) << what;
    EXPECT_EQ(split->adopted_chunks, 0u) << what;
    EXPECT_EQ(adopted->version_id, split->version_id) << what;
    EXPECT_EQ(adopted->total_chunks, split->total_chunks) << what;
    EXPECT_EQ(adopted->new_chunks, split->new_chunks) << what;
    EXPECT_EQ(ChunkList(*adopting.client, adopted->version_id),
              ChunkList(*splitting.client, split->version_id))
        << what;
    EXPECT_EQ(adopted->uploaded_share_bytes, split->uploaded_share_bytes) << what;
    // Only the new chunks' shares were uploaded, and byte for byte the same.
    const auto stored = StoredShares(adopting);
    const auto split_stored = StoredShares(splitting);
    for (size_t i = 0; i < split_stored.size(); ++i) {
      for (const auto& [name, bytes] : split_stored[i]) {
        auto it = stored[i].find(name);
        ASSERT_NE(it, stored[i].end()) << what << ": " << name;
        EXPECT_EQ(it->second, bytes) << what << ": " << name;
      }
    }
    auto get = adopting.client->Get("doc");
    ASSERT_TRUE(get.ok()) << what << ": " << get.status();
    EXPECT_EQ(get->content, content) << what;
  }
  EXPECT_GT(adopting.client->metrics()
                .GetCounter("cyrus_put_adopted_chunks_total")
                ->value(),
            0u);
}

TEST(ClientTest, OtherChunkerOptionsSplitInFull) {
  // A second client under the same client_id but other chunker options
  // shares the CSPs and syncs the first client's version: it must not adopt
  // those chunks, and cuts exactly its own Split.
  TestCloud first = MakeCloud(SmallConfig("device-1"));
  Bytes content = RandomContent(48 * 1024, 311);
  ASSERT_TRUE(first.client->Put("doc", content).ok());

  CyrusConfig config = SmallConfig("device-1");
  config.chunker.modulus = 2048;
  config.chunker.min_chunk_size = 256;
  TestCloud second = MakeCloud(config, first.csps);
  ASSERT_TRUE(second.client->SyncMetadata().ok());
  content[100] ^= 0xff;
  auto put = second.client->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->adopted_chunks, 0u);

  std::vector<std::tuple<Sha1Digest, uint64_t, uint64_t>> want;
  for (const ChunkSpan& span : Chunker::Create(config.chunker).value().Split(content)) {
    want.emplace_back(Sha1::Hash(ByteSpan(content).subspan(span.offset, span.size)),
                      span.offset, span.size);
  }
  EXPECT_EQ(ChunkList(*second.client, put->version_id), want);
  // Its next edit adopts from its own version.
  content[content.size() - 100] ^= 0xff;
  auto next = second.client->Put("doc", content);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_GT(next->adopted_chunks, 0u);
}

TEST(ClientTest, RejectsZeroPipelineWindow) {
  CyrusConfig config = SmallConfig();
  config.pipeline_window_chunks = 0;
  EXPECT_FALSE(CyrusClient::Create(std::move(config)).ok());
}

TEST(ClientTest, MetadataIsSecretSharedNotPlaintext) {
  TestCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("visible-name.txt", RandomContent(2048, 28)).ok());
  // No CSP object may contain the file name in cleartext.
  for (const auto& csp : cloud.csps) {
    auto listing = csp->List("");
    ASSERT_TRUE(listing.ok());
    for (const ObjectInfo& object : *listing) {
      EXPECT_EQ(object.name.find("visible-name"), std::string::npos);
      auto data = csp->Download(object.name);
      ASSERT_TRUE(data.ok());
      const std::string text = ToString(*data);
      EXPECT_EQ(text.find("visible-name"), std::string::npos)
          << "file name leaked into " << object.name << " on " << csp->id();
    }
  }
}

}  // namespace
}  // namespace cyrus
