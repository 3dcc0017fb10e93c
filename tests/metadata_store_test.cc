// The metadata object format and the store's I/O: share naming, envelope
// round trips, straggler generations, malformed metadata read back from a
// CSP, and how many List calls publish and discovery make.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/core/metadata_store.h"
#include "src/crypto/naming.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 5;
constexpr char kKey[] = "metadata store test key";

CyrusConfig Config(std::string client_id) {
  CyrusConfig config;
  config.client_id = std::move(client_id);
  config.key_string = kKey;
  config.t = 2;
  config.meta_t = 2;
  config.epsilon = 1e-4;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  config.transfer_concurrency = 1;
  return config;
}

std::vector<std::shared_ptr<SimulatedCsp>> MakeCsps(int count) {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  for (int i = 0; i < count; ++i) {
    SimulatedCspOptions o;
    o.id = "csp" + std::to_string(i);
    o.naming = (i % 2 == 0) ? NamingPolicy::kNameKeyed : NamingPolicy::kIdKeyed;
    csps.push_back(std::make_shared<SimulatedCsp>(o));
  }
  return csps;
}

// `rtt_ms`, when given, holds one profile RTT per CSP.
std::unique_ptr<CyrusClient> MakeClient(
    const std::string& client_id, const std::vector<std::shared_ptr<SimulatedCsp>>& csps,
    const std::vector<double>& rtt_ms = {}) {
  auto client = CyrusClient::Create(Config(client_id));
  EXPECT_TRUE(client.ok()) << client.status();
  for (size_t i = 0; i < csps.size(); ++i) {
    const auto& csp = csps[i];
    CspProfile profile;
    if (i < rtt_ms.size()) {
      profile.rtt_ms = rtt_ms[i];
    }
    profile.download_bytes_per_sec = 4e6;
    profile.upload_bytes_per_sec = 2e6;
    auto added = (*client)->AddCsp(csp, profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return std::move(client).value();
}

Bytes RandomContent(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

uint64_t TotalLists(const std::vector<std::shared_ptr<SimulatedCsp>>& csps) {
  uint64_t lists = 0;
  for (const auto& csp : csps) {
    lists += csp->counters().lists;
  }
  return lists;
}

uint64_t TotalDownloads(const std::vector<std::shared_ptr<SimulatedCsp>>& csps) {
  uint64_t downloads = 0;
  for (const auto& csp : csps) {
    downloads += csp->counters().downloads;
  }
  return downloads;
}

// The serialized metadata `client` publishes for version `id` (its wire
// form, projected from the chunk table); empty when the version is unknown.
Bytes WireOf(const CyrusClient& client, const Sha1Digest& id) {
  for (const FileVersion& wire : client.ExportCache().versions) {
    if (wire.id == id) {
      return wire.Serialize();
    }
  }
  return {};
}

// Distinct metadata share objects a CSP holds for one base (an id-keyed
// CSP lists a re-uploaded name once per copy).
std::set<std::string> SharesOf(SimulatedCsp& csp, const std::string& base) {
  std::set<std::string> names;
  auto listing = csp.List(base);
  EXPECT_TRUE(listing.ok()) << listing.status();
  for (const ObjectInfo& object : *listing) {
    names.insert(object.name);
  }
  return names;
}

TEST(MetadataStoreTest, ObjectNamesRoundTrip) {
  const MetaShareId id{"meta-0123abcd", 17, "89abcdef"};
  const std::string name = MetadataStore::ObjectName(id);
  EXPECT_EQ(name, "meta-0123abcd.17.89abcdef");
  const std::optional<MetaShareId> parsed = MetadataStore::ParseObjectName(name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, id.base);
  EXPECT_EQ(parsed->index, id.index);
  EXPECT_EQ(parsed->generation, id.generation);

  // The base may itself contain dots; index and generation are the last two
  // fields.
  const auto dotted = MetadataStore::ParseObjectName("a.b.3.ff");
  ASSERT_TRUE(dotted.has_value());
  EXPECT_EQ(dotted->base, "a.b");
  EXPECT_EQ(dotted->index, 3u);
  EXPECT_EQ(dotted->generation, "ff");

  for (const char* bad : {"meta-abc", "meta-abc.1", "meta-abc.1.", "meta-abc.x1.ff",
                          "meta-abc..ff", ".1.ff", "", "."}) {
    EXPECT_FALSE(MetadataStore::ParseObjectName(bad).has_value()) << bad;
  }
}

TEST(MetadataStoreTest, SealOpenRoundTripsAnyMetaTSubset) {
  for (uint32_t meta_t : {1u, 2u, 3u}) {
    for (size_t size : {0, 1, 5, 100, 4097}) {
      const Bytes payload = RandomContent(size, 100 + size + meta_t);
      auto sealed = MetadataStore::Seal(kKey, meta_t, 5, payload);
      ASSERT_TRUE(sealed.ok()) << sealed.status();
      ASSERT_EQ(sealed->shares.size(), 5u);
      EXPECT_EQ(sealed->generation.size(), 8u);
      // Sealing is deterministic: the same plaintext is the same generation.
      auto again = MetadataStore::Seal(kKey, meta_t, 5, payload);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->generation, sealed->generation);
      // Any meta_t shares open it.
      for (size_t first = 0; first + meta_t <= 5; ++first) {
        std::vector<Share> subset(sealed->shares.begin() + first,
                                  sealed->shares.begin() + first + meta_t);
        auto opened = MetadataStore::Open(kKey, meta_t, subset, sealed->generation);
        ASSERT_TRUE(opened.ok()) << opened.status();
        EXPECT_EQ(*opened, payload);
      }
    }
  }
}

TEST(MetadataStoreTest, OpenRejectsWrongKeyAndMixedGenerations) {
  const Bytes old_payload = RandomContent(300, 1);
  const Bytes new_payload = RandomContent(300, 2);
  auto old_sealed = MetadataStore::Seal(kKey, 2, 5, old_payload);
  auto new_sealed = MetadataStore::Seal(kKey, 2, 5, new_payload);
  ASSERT_TRUE(old_sealed.ok() && new_sealed.ok());
  EXPECT_NE(old_sealed->generation, new_sealed->generation);

  const std::vector<Share> fresh = {new_sealed->shares[0], new_sealed->shares[1]};
  EXPECT_EQ(MetadataStore::Open("another key", 2, fresh, new_sealed->generation)
                .status()
                .code(),
            StatusCode::kDataLoss);
  // One share of each generation reconstructs neither.
  const std::vector<Share> mixed = {new_sealed->shares[0], old_sealed->shares[1]};
  for (const std::string& generation : {old_sealed->generation, new_sealed->generation}) {
    EXPECT_EQ(MetadataStore::Open(kKey, 2, mixed, generation).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(MetadataStoreTest, StragglerKeepsOldGenerationAndIsNeverMixed) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  const Bytes content = RandomContent(10 * 1024, 3);
  auto put = writer->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();
  const std::string base = MetadataName(put->version_id);

  const Bytes original = WireOf(*writer, put->version_id);

  // csp4 sleeps through the republish that lazy migration off the removed
  // csp0 triggers, so it keeps a share of the old generation.
  ASSERT_TRUE(writer->RemoveCsp(0).ok());
  csps[4]->set_available(false);
  auto migrated = writer->Get("doc");
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated->migrated_shares, 0u);
  csps[4]->set_available(true);
  const Bytes republished = WireOf(*writer, put->version_id);
  ASSERT_NE(republished, original);

  std::set<std::string> generations;
  for (int i : {0, 1, 2, 3, 4}) {
    for (const std::string& name : SharesOf(*csps[i], base)) {
      generations.insert(MetadataStore::ParseObjectName(name)->generation);
    }
  }
  ASSERT_EQ(generations.size(), 2u) << "csp0 and csp4 should hold the old generation";

  // A fresh device over every account, registered in the writer's order,
  // sees the old generation on csp0 and csp4 (meta_t shares: decodable)
  // and the new one on csp1-csp3. It must ingest the new one.
  auto fresh = MakeClient("fresh", csps);
  ASSERT_TRUE(fresh->Recover().ok());
  ASSERT_TRUE(fresh->tree().Contains(put->version_id));
  EXPECT_EQ(WireOf(*fresh, put->version_id), republished) << "decoded the stale generation";
  auto get = fresh->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);

  // A device that reaches one share of each generation has meta_t shares
  // but no decodable generation: the file stays invisible, never garbage.
  auto partial = MakeClient("partial", {csps[3], csps[4]});
  ASSERT_TRUE(partial->Recover().ok());
  EXPECT_EQ(partial->tree().size(), 0u);
  EXPECT_EQ(partial->Get("doc").status().code(), StatusCode::kNotFound);
}

TEST(MetadataStoreTest, InvalidVersionIsSkippedAndNotFetchedAgain) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  const Bytes good = RandomContent(4 * 1024, 4);
  ASSERT_TRUE(writer->Put("good", good).ok());

  // A base that decodes under the user key into a version that fails
  // Validate(): 5 bytes, no chunks.
  FileVersion bad;
  bad.file_name = "bad";
  bad.content_id = Sha1::Hash(Bytes{1, 2, 3, 4, 5});
  bad.id = ComputeVersionId(bad.content_id, Sha1Digest{}, bad.file_name);
  bad.client_id = "mallory";
  bad.size = 5;
  ASSERT_FALSE(bad.Validate().ok());
  auto sealed = MetadataStore::Seal(kKey, 2, kNumCsps, bad.Serialize());
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  for (int i = 0; i < kNumCsps; ++i) {
    const std::string object = MetadataStore::ObjectName(
        MetaShareId{MetadataName(bad.id), sealed->shares[i].index, sealed->generation});
    ASSERT_TRUE(csps[i]->Upload(object, sealed->shares[i].data).ok());
  }

  auto reader = MakeClient("reader", csps);
  auto get = reader->Get("good");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, good);
  auto listing = reader->List("");
  ASSERT_TRUE(listing.ok()) << listing.status();
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, "good");
  EXPECT_FALSE(reader->tree().Contains(bad.id));

  // Later passes list but download nothing: the bad base is not refetched.
  uint64_t downloads = 0;
  for (const auto& csp : csps) {
    downloads += csp->counters().downloads;
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  ASSERT_TRUE(reader->SyncMetadata().ok());
  for (const auto& csp : csps) {
    downloads -= csp->counters().downloads;
  }
  EXPECT_EQ(downloads, 0u);
}

// The published ShareMap rows and share digests are the chunk table's at
// publish time: a republish after a share moved carries the move, and a
// version whose chunk the table no longer tracks does not publish.
TEST(MetadataStoreTest, PublishProjectsTheChunkTableLayout) {
  auto csps = MakeCsps(kNumCsps);
  CspRegistry registry;
  for (const auto& csp : csps) {
    ASSERT_TRUE(csp->Authenticate(Credentials{"token"}).ok());
    registry.Add(csp, CspProfile{});
  }
  AvailabilityMonitor monitor;
  CspCalls calls(&registry, &monitor, RetryOptions{}, nullptr, nullptr);
  ChunkTable writer_table;
  ChunkTable reader_table;
  MetadataStoreContext context;
  context.registry = &registry;
  context.calls = &calls;
  context.monitor = &monitor;
  context.key_string = kKey;
  context.meta_t = 2;
  context.now = [] { return 0.0; };
  context.chunk_table = &writer_table;
  MetadataStore writer(context);
  context.chunk_table = &reader_table;
  MetadataStore reader(context);

  const Sha1Digest chunk_id = Sha1::Hash(std::string_view("chunk"));
  ChunkEntry entry;
  entry.size = 100;
  entry.t = 2;
  entry.n = 3;
  for (uint32_t i = 0; i < 3; ++i) {
    entry.shares.push_back(ChunkShare{i, static_cast<int32_t>(i),
                                      Sha1::Hash(StrCat("share-", i))});
  }
  ASSERT_TRUE(writer_table.Insert(chunk_id, entry).ok());
  FileVersion version;
  version.content_id = Sha1::Hash(std::string_view("content"));
  version.file_name = "doc";
  version.id = ComputeVersionId(version.content_id, Sha1Digest{}, version.file_name);
  version.size = 100;
  version.chunks.push_back(ChunkRecord{chunk_id, 0, 100, 2, 3, false, {}, {}});

  TransferReport report;
  ASSERT_TRUE(writer.Publish(version, report).ok());
  const Sha1Digest moved_digest = Sha1::Hash(std::string_view("share-5"));
  ASSERT_TRUE(writer_table.MoveShare(chunk_id, 0, 0, 4, 5, moved_digest).ok());
  ASSERT_TRUE(writer.Publish(version, report).ok());

  const std::vector<FileVersion> found = reader.Discover();
  ASSERT_EQ(found.size(), 1u);
  std::set<std::pair<int32_t, uint32_t>> rows;
  for (const ShareLocation& loc : found[0].SharesOfChunk(chunk_id)) {
    rows.emplace(loc.csp, loc.share_index);
  }
  EXPECT_EQ(rows, (std::set<std::pair<int32_t, uint32_t>>{{1, 1}, {2, 2}, {4, 5}}));
  const ChunkRecord& record = found[0].chunks.at(0);
  EXPECT_EQ(record.FindShareDigest(0), nullptr);
  ASSERT_NE(record.FindShareDigest(5), nullptr);
  EXPECT_EQ(*record.FindShareDigest(5), moved_digest);
  ASSERT_NE(record.FindShareDigest(1), nullptr);
  EXPECT_EQ(*record.FindShareDigest(1), Sha1::Hash(std::string_view("share-1")));

  ASSERT_TRUE(writer_table.Release(chunk_id).ok());
  ASSERT_TRUE(writer_table.Evict(chunk_id).ok());
  EXPECT_TRUE(writer.ToWireForm(version).shares.empty());
  EXPECT_FALSE(writer.Publish(version, report).ok());
}

TEST(MetadataStoreTest, FirstPublishListsNothing) {
  auto csps = MakeCsps(kNumCsps);
  auto client = MakeClient("writer", csps);
  for (int i = 0; i < 3; ++i) {
    const uint64_t before = TotalLists(csps);
    ASSERT_TRUE(client->Put(StrCat("file-", i), RandomContent(4096, 10 + i)).ok());
    EXPECT_EQ(TotalLists(csps) - before, 0u) << "Put " << i;
  }
}

TEST(MetadataStoreTest, AnotherKeysFirstPublishOfTheSameBaseLeavesOursIntact) {
  // Users sharing CSP accounts under convergent dedup store identical
  // shares for identical content, and publish the same metadata base for
  // the same name (version ids hash content, parent and name). A first
  // publish must not delete the other user's metadata shares.
  auto csps = MakeCsps(kNumCsps);
  auto make_user = [&](const std::string& client_id, const std::string& key) {
    CyrusConfig config = Config(client_id);
    config.key_string = key;
    config.dedup_mode = DedupMode::kConvergent;
    config.dedup_salt = "deployment salt";
    auto client = CyrusClient::Create(std::move(config));
    EXPECT_TRUE(client.ok()) << client.status();
    for (const auto& csp : csps) {
      EXPECT_TRUE((*client)->AddCsp(csp, CspProfile{}, Credentials{"token"}).ok());
    }
    return std::move(client).value();
  };
  const Bytes content = RandomContent(4096, 6);
  auto put = make_user("alice", kKey)->Put("same.bin", content);
  ASSERT_TRUE(put.ok()) << put.status();
  auto bob_put = make_user("bob", "bob's key")->Put("same.bin", content);
  ASSERT_TRUE(bob_put.ok()) << bob_put.status();
  ASSERT_EQ(bob_put->version_id, put->version_id);

  auto fresh = make_user("alice-2", kKey);
  ASSERT_TRUE(fresh->Recover().ok());
  auto get = fresh->Get("same.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(MetadataStoreTest, RepublishListsOncePerReceivingCspAndDeletesStaleShares) {
  auto csps = MakeCsps(kNumCsps);
  auto client = MakeClient("writer", csps);
  auto put = client->Put("doc", RandomContent(8 * 1024, 20));
  ASSERT_TRUE(put.ok()) << put.status();
  const std::string base = MetadataName(put->version_id);

  // Rebalancing onto a new account: every CSP receives a share, and each
  // lists the base exactly once.
  auto newcomer = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"newcomer"});
  ASSERT_TRUE(client->AddCsp(newcomer, CspProfile{}, Credentials{"token"}).ok());
  csps.push_back(newcomer);
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(client->RebalanceMetadata().ok());
  for (const auto& csp : csps) {
    EXPECT_EQ(csp->counters().lists, 1u) << csp->id();
    EXPECT_EQ(SharesOf(*csp, base).size(), 1u) << csp->id();
  }

  // Removing csp0 shifts every remaining CSP onto another share index: the
  // republish lists once per remaining CSP and deletes each stale index.
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(client->RemoveCsp(0).ok());
  EXPECT_EQ(csps[0]->counters().lists, 0u);
  for (size_t i = 1; i < csps.size(); ++i) {
    EXPECT_EQ(csps[i]->counters().lists, 1u) << csps[i]->id();
    EXPECT_GT(csps[i]->counters().deletes, 0u) << csps[i]->id();
    EXPECT_EQ(SharesOf(*csps[i], base).size(), 1u) << csps[i]->id();
  }
}

// Every publish reaches meta_t CSPs, so a pass that lists any
// kNumCsps - meta_t + 1 of them sees every new base.
constexpr uint64_t kListQuorum = kNumCsps - 2 + 1;

TEST(MetadataStoreTest, DiscoveryListsAllButMetaTMinusOneCspsWhateverItIngests) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  auto reader = MakeClient("reader", csps);
  size_t expected_versions = 0;
  for (int k : {1, 4, 0}) {
    for (int i = 0; i < k; ++i) {
      ASSERT_TRUE(writer
                      ->Put(StrCat("batch-", expected_versions, "-", i),
                            RandomContent(2048, 30 + expected_versions + i))
                      .ok());
    }
    expected_versions += k;
    const uint64_t before = TotalLists(csps);
    ASSERT_TRUE(reader->SyncMetadata().ok());
    EXPECT_EQ(TotalLists(csps) - before, kListQuorum) << k;
    EXPECT_EQ(reader->tree().size(), expected_versions);
  }
}

TEST(MetadataStoreTest, DiscoveryLeavesOutTheCspWithTheLargestExpectedRequestTime) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  // csp3 has the largest RTT; csp1 the smallest, until it learns an excess.
  auto reader = MakeClient("reader", csps, {40, 10, 30, 90, 50});
  ASSERT_TRUE(writer->Put("a", RandomContent(2048, 40)).ok());
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  EXPECT_EQ(reader->tree().size(), 1u);
  EXPECT_EQ(TotalLists(csps), kListQuorum);
  EXPECT_EQ(csps[3]->counters().lists, 0u);

  // 10 ms of RTT plus 100 ms of learned excess is now the largest. The
  // first pass booked csp1's metadata download at zero excess, so the
  // slow samples fill the window.
  for (size_t i = 0; i < AvailabilityMonitor::kExcessWindow; ++i) {
    reader->availability_monitor().RecordExcess(1, 0.1);
  }
  ASSERT_TRUE(writer->Put("b", RandomContent(2048, 41)).ok());
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  EXPECT_EQ(reader->tree().size(), 2u);
  EXPECT_EQ(TotalLists(csps), kListQuorum);
  EXPECT_EQ(csps[1]->counters().lists, 0u);
  EXPECT_EQ(csps[3]->counters().lists, 1u);
}

TEST(MetadataStoreTest, BaseOnMetaTCspsOneUnlistedIsIngestedInOnePass) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  auto reader = MakeClient("reader", csps, {10, 20, 30, 40, 50});
  const Bytes content = RandomContent(2048, 42);
  auto put = writer->Put("doc", content);
  ASSERT_TRUE(put.ok()) << put.status();
  // Leave the metadata on exactly meta_t CSPs: csp0, and csp4, which the
  // reader's quorum listing leaves out.
  const std::string base = MetadataName(put->version_id);
  for (int i : {1, 2, 3}) {
    for (const std::string& name : SharesOf(*csps[i], base)) {
      ASSERT_TRUE(csps[i]->Delete(name).ok());
    }
  }
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  ASSERT_TRUE(reader->tree().Contains(put->version_id));
  EXPECT_EQ(TotalLists(csps), static_cast<uint64_t>(kNumCsps))
      << "one holder among the quorum: the pass lists the rest";
  auto get = reader->Get("doc");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

// Lists like any CSP, but every Download finds nothing: an object that
// went away between a List and the Download.
class VanishingCsp : public SimulatedCsp {
 public:
  using SimulatedCsp::SimulatedCsp;
  Result<Bytes> Download(std::string_view name) override {
    return NotFoundError(StrCat(id(), ": ", name, " is gone"));
  }
};

TEST(MetadataStoreTest, BaseTheListedHoldersCannotServeIsFetchedFromTheRest) {
  auto csps = MakeCsps(kNumCsps);
  csps[1] = std::make_shared<VanishingCsp>(SimulatedCspOptions{"csp1"});
  auto writer = MakeClient("writer", csps);
  auto reader = MakeClient("reader", csps, {10, 20, 30, 40, 50});
  auto put = writer->Put("doc", RandomContent(2048, 43));
  ASSERT_TRUE(put.ok()) << put.status();
  // The quorum (csp0-csp3) shows meta_t holders of one generation, csp0
  // and csp1, but csp1 serves nothing: the pass lists csp4 and fetches
  // from csp0 and csp4.
  const std::string base = MetadataName(put->version_id);
  for (int i : {2, 3}) {
    for (const std::string& name : SharesOf(*csps[i], base)) {
      ASSERT_TRUE(csps[i]->Delete(name).ok());
    }
  }
  for (const auto& csp : csps) {
    csp->ResetCounters();
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  EXPECT_TRUE(reader->tree().Contains(put->version_id));
  EXPECT_EQ(TotalLists(csps), static_cast<uint64_t>(kNumCsps));
  EXPECT_EQ(csps[4]->counters().downloads, 1u);
}

TEST(MetadataStoreTest, PassOverOnlyKnownBasesDownloadsNothing) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  auto reader = MakeClient("reader", csps);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer->Put(StrCat("file-", i), RandomContent(2048, 50 + i)).ok());
  }
  ASSERT_TRUE(reader->SyncMetadata().ok());
  ASSERT_EQ(reader->tree().size(), 3u);
  const uint64_t before = TotalDownloads(csps);
  const uint64_t lists = TotalLists(csps);
  ASSERT_TRUE(reader->SyncMetadata().ok());
  EXPECT_EQ(TotalDownloads(csps), before);
  EXPECT_EQ(TotalLists(csps) - lists, kListQuorum);
}

// Forwards to a store, counting metadata downloads and delaying each by
// `meta_delay`; every other call is as fast as the store.
class MetaTapConnector : public CloudConnector {
 public:
  MetaTapConnector(std::shared_ptr<SimulatedCsp> store, std::chrono::milliseconds meta_delay)
      : store_(std::move(store)), meta_delay_(meta_delay) {}

  uint64_t meta_downloads() const { return meta_downloads_; }

  std::string_view id() const override { return store_->id(); }
  Status Authenticate(const Credentials& credentials) override {
    return store_->Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override {
    return store_->List(prefix);
  }
  Status Upload(std::string_view name, ByteSpan data) override {
    return store_->Upload(name, data);
  }
  Result<Bytes> Download(std::string_view name) override {
    if (name.starts_with("meta-")) {
      ++meta_downloads_;
      std::this_thread::sleep_for(meta_delay_);
    }
    return store_->Download(name);
  }
  Status Delete(std::string_view name) override { return store_->Delete(name); }

 private:
  std::shared_ptr<SimulatedCsp> store_;
  std::chrono::milliseconds meta_delay_;
  std::atomic<uint64_t> meta_downloads_{0};
};

// A reader over `csps` behind taps, every profile RTT 1 ms; CSP 0's
// metadata downloads take `csp0_meta_delay`.
std::unique_ptr<CyrusClient> MakeTappedReader(
    const std::vector<std::shared_ptr<SimulatedCsp>>& csps, obs::MetricsRegistry* metrics,
    std::chrono::milliseconds csp0_meta_delay,
    std::vector<std::shared_ptr<MetaTapConnector>>& taps) {
  CyrusConfig config = Config("reader");
  config.metrics = metrics;
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  for (size_t i = 0; i < csps.size(); ++i) {
    taps.push_back(std::make_shared<MetaTapConnector>(
        csps[i], i == 0 ? csp0_meta_delay : std::chrono::milliseconds(0)));
    CspProfile profile;
    profile.rtt_ms = 1.0;
    profile.download_bytes_per_sec = 1e9;
    profile.upload_bytes_per_sec = 1e9;
    EXPECT_TRUE((*client)->AddCsp(taps.back(), profile, Credentials{"token"}).ok());
  }
  return std::move(client).value();
}

TEST(MetadataStoreTest, DiscoveryDownloadsAreBookedLikeEveryOtherTransfer) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  const Bytes content = RandomContent(4096, 61);
  ASSERT_TRUE(writer->Put("foreign.bin", content).ok());

  obs::MetricsRegistry metrics;
  std::vector<std::shared_ptr<MetaTapConnector>> taps;
  auto reader = MakeTappedReader(csps, &metrics, std::chrono::milliseconds(0), taps);
  auto get = reader->Get("foreign.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  uint64_t meta_downloads = 0;
  for (const auto& tap : taps) {
    meta_downloads += tap->meta_downloads();
  }
  EXPECT_GT(meta_downloads, 0u);
  EXPECT_EQ(metrics
                .GetCounter("cyrus_transfer_requests_total",
                            {{"kind", "GET_META"}, {"result", "ok"}})
                ->value(),
            meta_downloads);
}

TEST(MetadataStoreTest, SlowMetadataDownloadsRaiseTheLearnedExcess) {
  auto csps = MakeCsps(kNumCsps);
  auto writer = MakeClient("writer", csps);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer->Put(StrCat("file-", i), RandomContent(2048, 70 + i)).ok());
  }
  // CSP 0 holds share 0 of every base, so discovery downloads three slow
  // metadata shares from it, and nothing else.
  obs::MetricsRegistry metrics;
  std::vector<std::shared_ptr<MetaTapConnector>> taps;
  auto reader = MakeTappedReader(csps, &metrics, std::chrono::milliseconds(20), taps);
  ASSERT_TRUE(reader->SyncMetadata().ok());
  ASSERT_EQ(reader->tree().size(), 3u);
  EXPECT_EQ(taps[0]->meta_downloads(), 3u);
  EXPECT_GT(reader->availability_monitor().MedianExcessSeconds(0), 0.0);
}

}  // namespace
}  // namespace cyrus
