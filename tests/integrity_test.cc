// End-to-end share integrity battery (ctest label `integrity`;
// scripts/check.sh --integrity, also run under TSan in the tsan tier).
//
// Covers the per-share authentication path end to end:
//   - Put records a digest for every placed share (chunk table + metadata);
//   - a CSP corrupting 100% of its downloads is isolated share-by-share:
//     Get still returns intact content from the clean providers and the
//     poisoned shares surface as typed integrity rejections, never as
//     plaintext corruption;
//   - a repeat offender is quarantined after its third rejected share;
//   - legacy (pre-digest) metadata takes the combinatorial decode once,
//     identifies the rotted share, heals it in place, and upgrades the
//     record so every later read authenticates cheaply;
//   - the scrub integrity pass finds injected at-rest rot within its
//     sample/bandwidth budget, heals it, and a follow-up pass scans clean;
//   - devices of one user with different t read each chunk exactly as
//     their chunk table stores it (Get, GetRange and readahead), and a
//     republish carries the table's t with its rows;
//   - the REST layer maps integrity/data-loss failures to 502, not 500;
//   - the fault injector's corruption schedule is seeded-reproducible.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/gateway/gateway_rest.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

Bytes RandomContent(Rng& rng, size_t size) {
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

struct Cloud {
  // Declared first so it is destroyed last: the fault injectors and the
  // client record into it until they are gone.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::unique_ptr<CyrusClient> client;
};

CyrusConfig BaseConfig(uint64_t seed) {
  CyrusConfig config;
  config.client_id = "integrity-device";
  config.key_string = StrCat("integrity key ", seed);
  config.t = 2;
  config.chunker = ChunkerOptions::ForTesting();
  config.transfer_concurrency = 4;
  config.transfer_retry.seed = seed;
  config.transfer_retry.max_attempts = 2;
  // Pin n = |active|: every chunk keeps a share on every CSP, so the
  // corrupting provider is guaranteed to sit in each gather's plan.
  config.default_failure_prob = 0.5;
  config.epsilon = 1e-9;
  return config;
}

Cloud MakeCloud(CyrusConfig config, int num_csps, uint64_t seed,
                const std::function<void(int, FaultInjectionOptions&)>& tweak = {}) {
  Cloud cloud;
  cloud.metrics = std::make_unique<obs::MetricsRegistry>();
  if (config.metrics == nullptr) {
    config.metrics = cloud.metrics.get();
  }
  obs::MetricsRegistry* metrics = config.metrics;
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (int i = 0; i < num_csps; ++i) {
    SimulatedCspOptions o;
    o.id = StrCat("int-csp", i);
    FaultInjectionOptions faults;
    faults.seed = seed * 17 + static_cast<uint64_t>(i);
    faults.metrics = metrics;
    if (tweak) {
      tweak(i, faults);
    }
    auto injector = std::make_shared<FaultInjectingConnector>(
        std::make_shared<SimulatedCsp>(o), faults);
    cloud.faults.push_back(injector);
    CspProfile profile;
    profile.rtt_ms = 40.0;
    // CSP 0 looks fastest so the download selector always favours it -
    // the corruption tests put the liar exactly there.
    profile.download_bytes_per_sec = (i == 0) ? 50e6 : 8e6;
    profile.upload_bytes_per_sec = 5e6;
    auto added = cloud.client->AddCsp(injector, profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

// Flips one stored byte of every share the chunk table places on `csp`.
// Returns how many objects were rotted.
size_t RotCspShares(const CyrusClient& client, FaultInjectingConnector& fault,
                    int csp) {
  size_t rotted = 0;
  const ChunkTable& table = client.chunk_table();
  for (const Sha1Digest& chunk_id : table.AllChunkIds()) {
    const ChunkEntry* entry = table.Find(chunk_id);
    if (entry == nullptr) {
      continue;
    }
    for (const ChunkShare& share : entry->shares) {
      if (share.csp != csp) {
        continue;
      }
      if (fault.RotStoredObject(ShareName(chunk_id, share.share_index, entry->t),
                                /*byte_index=*/7)
              .ok()) {
        ++rotted;
      }
    }
  }
  return rotted;
}

// Put records one digest per placed share, in the chunk table and in the
// published metadata, and a clean Get authenticates without rejections.
TEST(ShareIntegrityTest, PutRecordsDigestsAndCleanGetAuthenticates) {
  const uint64_t seed = 0x17E60001;
  Rng rng(seed);
  Cloud cloud = MakeCloud(BaseConfig(seed), /*num_csps=*/4, seed);

  const Bytes content = RandomContent(rng, 6 * 1024);
  auto put = cloud.client->Put("clean-file", content);
  ASSERT_TRUE(put.ok()) << put.status();

  const ChunkTable& table = cloud.client->chunk_table();
  ASSERT_FALSE(table.AllChunkIds().empty());
  for (const Sha1Digest& chunk_id : table.AllChunkIds()) {
    const ChunkEntry* entry = table.Find(chunk_id);
    ASSERT_NE(entry, nullptr);
    for (const ChunkShare& share : entry->shares) {
      EXPECT_TRUE(share.has_digest())
          << chunk_id.ToHex() << " index " << share.share_index;
    }
  }

  auto get = cloud.client->Get("clean-file");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(get->integrity_rejected_shares, 0u);
  EXPECT_EQ(get->digest_upgraded_chunks, 0u);
}

// A share whose first upload fails is re-uploaded to another CSP with the
// digest its scatter computed up front. That digest must match the bytes at
// the new CSP, and a Get that can only decode through that share accepts it.
TEST(ShareIntegrityTest, FailedOverShareKeepsItsDigest) {
  const uint64_t seed = 0x17E60008;
  constexpr int kCsps = 7;
  CyrusConfig config = BaseConfig(seed);
  config.chunker = ChunkerOptions{};  // the content below is one chunk
  config.default_failure_prob = 0.01;  // n below the CSP count leaves room
  config.epsilon = 1e-6;               // to fail over
  Rng rng(seed);
  const Bytes content = RandomContent(rng, 10 * 1024);

  // The ring places a chunk by its id and the CSP ids alone, so a twin
  // cloud shows which CSP share 1 lands on.
  Cloud twin = MakeCloud(config, kCsps, seed);
  ASSERT_TRUE(twin.client->Put("twin", content).ok());
  ASSERT_EQ(twin.client->chunk_table().size(), 1u);
  const Sha1Digest chunk_id = twin.client->chunk_table().AllChunkIds().front();
  const ChunkEntry* twin_entry = twin.client->chunk_table().Find(chunk_id);
  ASSERT_NE(twin_entry, nullptr);
  ASSERT_LT(twin_entry->shares.size(), static_cast<size_t>(kCsps));
  ASSERT_GT(twin_entry->shares.size(), 1u);
  const int down = twin_entry->shares[1].csp;

  Cloud cloud = MakeCloud(config, kCsps, seed);
  cloud.faults[down]->set_permanently_down(true);
  auto put = cloud.client->Put("failed-over", content);
  ASSERT_TRUE(put.ok()) << put.status();
  bool upload_failed = false;
  for (const TransferRecord& record : put->transfer.records) {
    upload_failed |= record.csp == down && !record.success &&
                     record.object_name == ShareName(chunk_id, 1, config.t);
  }
  ASSERT_TRUE(upload_failed) << "share 1's first upload never reached CSP " << down;

  const ChunkEntry* entry = cloud.client->chunk_table().Find(chunk_id);
  ASSERT_NE(entry, nullptr);
  const ChunkShare* moved = nullptr;
  for (const ChunkShare& share : entry->shares) {
    if (share.share_index == 1) {
      moved = &share;
    }
  }
  ASSERT_NE(moved, nullptr);
  ASSERT_NE(moved->csp, down);
  ASSERT_TRUE(moved->has_digest());
  auto stored = cloud.faults[moved->csp]->Download(ShareName(chunk_id, 1, entry->t));
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(moved->digest, Sha1::Hash(*stored));

  // Leave only the moved share and one other up: with t = 2 the Get must
  // download and verify the moved share to decode.
  int spare = -1;
  for (const ChunkShare& share : entry->shares) {
    if (share.csp == moved->csp) {
      continue;
    }
    if (spare < 0) {
      spare = share.csp;
    } else {
      cloud.faults[share.csp]->set_permanently_down(true);
    }
  }
  ASSERT_GE(spare, 0);
  auto get = cloud.client->Get("failed-over");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(get->integrity_rejected_shares, 0u);
}

// Tentpole bar: one of five CSPs corrupts 100% of its downloads. Every Get
// must return intact plaintext (availability 1.0 at the content level) with
// the poisoned shares rejected *before* decode, and the per-CSP integrity
// counter must name the liar.
TEST(ShareIntegrityTest, FullyCorruptingCspIsIsolated) {
  const uint64_t seed = 0x17E60002;
  Rng rng(seed);
  Cloud cloud = MakeCloud(BaseConfig(seed), /*num_csps=*/5, seed,
                          [](int i, FaultInjectionOptions& f) {
                            if (i == 0) {
                              f.download_corrupt_prob = 1.0;
                            }
                          });

  const Bytes content = RandomContent(rng, 8 * 1024);
  auto put = cloud.client->Put("poisoned-csp", content);
  ASSERT_TRUE(put.ok()) << put.status();

  auto get = cloud.client->Get("poisoned-csp");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_GT(get->integrity_rejected_shares, 0u);

  obs::MetricsRegistry* metrics = cloud.metrics.get();
  EXPECT_GT(
      metrics->GetCounter("cyrus_integrity_rejected_shares_total", {}, "")->value(),
      0u);
  EXPECT_GT(metrics
                ->GetCounter("cyrus_integrity_failures_total",
                             {{"csp", "int-csp0"}}, "")
                ->value(),
            0u);
  // The corruption never reached the decoder as trusted input: the share
  // was discarded and replaced by a clean provider's copy.
  EXPECT_GT(cloud.faults[0]->counters().downloads_corrupted, 0u);
}

// A CSP whose third share fails its digest check is marked failed outright -
// out of placement and selection until re-admitted.
TEST(ShareIntegrityTest, RepeatOffenderQuarantined) {
  const uint64_t seed = 0x17E60004;
  Rng rng(seed);
  Cloud cloud = MakeCloud(BaseConfig(seed), /*num_csps=*/5, seed,
                          [](int i, FaultInjectionOptions& f) {
                            if (i == 0) {
                              f.download_corrupt_prob = 1.0;
                            }
                          });

  const Bytes content = RandomContent(rng, 8 * 1024);
  auto put = cloud.client->Put("quarantine", content);
  ASSERT_TRUE(put.ok()) << put.status();

  auto get = cloud.client->Get("quarantine");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  ASSERT_GE(get->integrity_rejected_shares, 3u);

  auto state = cloud.client->registry().state(0);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, CspState::kFailed);
  EXPECT_GE(cloud.client->availability_monitor().IntegrityFailureCount(0), 3u);
}

// Legacy (pre-digest) metadata with one rotted share: the gather falls back
// to the combinatorial decode, identifies and heals the corrupt share, and
// upgrades the record in place so the next reader authenticates normally.
TEST(ShareIntegrityTest, LegacyMetadataCombinatorialUpgrade) {
  const uint64_t seed = 0x17E60005;
  Rng rng(seed);

  Cloud cloud = MakeCloud(BaseConfig(seed), /*num_csps=*/5, seed);
  const Bytes content = RandomContent(rng, 3 * 1024);
  auto put = cloud.client->Put("legacy-file", content);
  ASSERT_TRUE(put.ok()) << put.status();

  // The legacy writer: the same state with every share digest stripped,
  // imported into a fresh session and republished - exactly the metadata
  // a pre-digest client published.
  LocalCacheSnapshot snapshot = cloud.client->ExportCache();
  for (FileVersion& version : snapshot.versions) {
    for (ChunkRecord& chunk : version.chunks) {
      chunk.share_digests.clear();
    }
  }
  auto legacy = CyrusClient::Create(BaseConfig(seed));
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  for (auto& fault : cloud.faults) {
    CspProfile profile;
    ASSERT_TRUE((*legacy)->AddCsp(fault, profile, Credentials{"token"}).ok());
  }
  ASSERT_TRUE((*legacy)->ImportCache(snapshot).ok());
  ASSERT_TRUE((*legacy)->RebalanceMetadata().ok());
  cloud.client = std::move(legacy).value();
  for (const Sha1Digest& chunk_id : cloud.client->chunk_table().AllChunkIds()) {
    const ChunkEntry* entry = cloud.client->chunk_table().Find(chunk_id);
    ASSERT_NE(entry, nullptr);
    for (const ChunkShare& share : entry->shares) {
      EXPECT_FALSE(share.has_digest());
    }
  }

  // Bit rot at the provider while the file sits cold.
  ASSERT_GT(RotCspShares(*cloud.client, *cloud.faults[0], /*csp=*/0), 0u);

  // A modern reader over the same accounts: no digests to check, so the
  // decode integrity path runs the exhaustive t-subset decode, names the
  // rotted share, heals it, and derives the full digest set.
  cloud.client.reset();
  auto reader = CyrusClient::Create(BaseConfig(seed));
  ASSERT_TRUE(reader.ok()) << reader.status();
  for (auto& fault : cloud.faults) {
    CspProfile profile;
    ASSERT_TRUE((*reader)->AddCsp(fault, profile, Credentials{"token"}).ok());
  }
  auto get = (*reader)->Get("legacy-file");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_GT(get->digest_upgraded_chunks, 0u);

  // The upgrade stuck: table digests present, and a fresh session reading
  // the republished metadata authenticates without any fallback.
  for (const Sha1Digest& chunk_id : (*reader)->chunk_table().AllChunkIds()) {
    const ChunkEntry* entry = (*reader)->chunk_table().Find(chunk_id);
    ASSERT_NE(entry, nullptr);
    for (const ChunkShare& share : entry->shares) {
      EXPECT_TRUE(share.has_digest());
    }
  }
  reader->reset();
  auto second = CyrusClient::Create(BaseConfig(seed));
  ASSERT_TRUE(second.ok()) << second.status();
  for (auto& fault : cloud.faults) {
    CspProfile profile;
    ASSERT_TRUE((*second)->AddCsp(fault, profile, Credentials{"token"}).ok());
  }
  auto get2 = (*second)->Get("legacy-file");
  ASSERT_TRUE(get2.ok()) << get2.status();
  EXPECT_EQ(get2->content, content);
  EXPECT_EQ(get2->digest_upgraded_chunks, 0u);
  EXPECT_EQ(get2->integrity_rejected_shares, 0u);
}

// Scrub integrity pass: injected at-rest rot is found by the sampled digest
// sweep, healed in place within the pass budget, and a follow-up pass scans
// completely clean.
TEST(ShareIntegrityTest, ScrubHealsAtRestRot) {
  const uint64_t seed = 0x17E60006;
  CyrusConfig config = BaseConfig(seed);
  config.repair.integrity_samples_per_pass = 64;  // covers the whole table
  Rng rng(seed);
  Cloud cloud = MakeCloud(std::move(config), /*num_csps=*/5, seed);

  const Bytes content = RandomContent(rng, 8 * 1024);
  auto put = cloud.client->Put("rotting", content);
  ASSERT_TRUE(put.ok()) << put.status();

  const size_t rotted = RotCspShares(*cloud.client, *cloud.faults[0], /*csp=*/0);
  ASSERT_GT(rotted, 0u);

  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_GT(scrub->stats.shares_integrity_checked, 0u);
  EXPECT_EQ(scrub->stats.integrity_failures, rotted);
  EXPECT_EQ(scrub->stats.shares_healed, rotted);

  // The heal really landed on the providers: a second pass sees no rot.
  auto rescrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(rescrub.ok()) << rescrub.status();
  EXPECT_GT(rescrub->stats.shares_integrity_checked, 0u);
  EXPECT_EQ(rescrub->stats.integrity_failures, 0u);
  EXPECT_EQ(rescrub->stats.shares_healed, 0u);

  auto get = cloud.client->Get("rotting");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(get->integrity_rejected_shares, 0u);
}

// The scrub's per-pass sample budget really bounds the sweep, and the
// persistent cursor still covers the whole table across passes.
TEST(ShareIntegrityTest, ScrubSampleBudgetRotatesAcrossPasses) {
  const uint64_t seed = 0x17E60007;
  CyrusConfig config = BaseConfig(seed);
  config.repair.integrity_samples_per_pass = 1;  // one chunk per pass
  Rng rng(seed);
  Cloud cloud = MakeCloud(std::move(config), /*num_csps=*/4, seed);

  const Bytes content = RandomContent(rng, 6 * 1024);
  auto put = cloud.client->Put("sampled", content);
  ASSERT_TRUE(put.ok()) << put.status();
  const size_t chunks = cloud.client->chunk_table().AllChunkIds().size();
  ASSERT_GT(chunks, 1u);

  const size_t rotted = RotCspShares(*cloud.client, *cloud.faults[0], /*csp=*/0);
  ASSERT_EQ(rotted, chunks);  // one share per chunk sits on csp 0

  // Each pass samples exactly one chunk; after `chunks` passes the rotating
  // cursor has swept the whole table and healed every rotted share.
  uint64_t healed = 0;
  for (size_t pass = 0; pass < chunks; ++pass) {
    auto scrub = cloud.client->ScrubOnce();
    ASSERT_TRUE(scrub.ok()) << scrub.status();
    EXPECT_LE(scrub->stats.shares_integrity_checked, 4u);  // one chunk's shares
    healed += scrub->stats.shares_healed;
  }
  EXPECT_EQ(healed, rotted);
}

// Devices of one user over the same five CSPs, each with its own t. Two
// devices that Put the same bytes before either syncs store the same chunk
// twice, under each one's t, and each keeps its own layout when it ingests
// the other's version.
struct MixedTCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  // One registry per device, declared before the devices that record into
  // them.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
  std::vector<std::unique_ptr<CyrusClient>> devices;

  MixedTCloud() {
    for (int i = 0; i < 5; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("mixed-csp", i);
      csps.push_back(std::make_shared<SimulatedCsp>(o));
    }
  }

  CyrusClient& AddDevice(std::string client_id, uint32_t t) {
    metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    CyrusConfig config;
    config.client_id = std::move(client_id);
    config.key_string = "mixed-t key";
    config.t = t;
    config.epsilon = 1e-4;
    config.default_failure_prob = 0.01;
    config.chunker = ChunkerOptions::ForTesting();
    config.cluster_aware = false;
    config.metrics = metrics.back().get();
    auto client = CyrusClient::Create(std::move(config));
    EXPECT_TRUE(client.ok()) << client.status();
    for (const auto& csp : csps) {
      auto added = (*client)->AddCsp(csp, CspProfile{}, Credentials{"token"});
      EXPECT_TRUE(added.ok()) << added.status();
    }
    devices.push_back(std::move(client).value());
    return *devices.back();
  }
};

// No CSP failed, and none served a share that failed its digest.
void ExpectEveryCspClean(CyrusClient& client) {
  for (size_t i = 0; i < client.registry().size(); ++i) {
    const int csp = static_cast<int>(i);
    EXPECT_TRUE(client.registry().IsActive(csp)) << "csp " << i;
    EXPECT_EQ(client.availability_monitor().IntegrityFailureCount(csp), 0u) << "csp " << i;
  }
}

// Device B (t = 3) reads device A's (t = 2) file. B's table stores the
// chunk as B dispersed it, and the read names, checks and decodes the
// shares exactly as that entry says, whatever t A's version records.
TEST(ShareIntegrityTest, MixedTGetReadsTheChunkAsTheTableStoresIt) {
  MixedTCloud cloud;
  CyrusClient& a = cloud.AddDevice("device-a", 2);
  CyrusClient& b = cloud.AddDevice("device-b", 3);
  Rng rng(0x17E6000A);
  const Bytes content = RandomContent(rng, 20 * 1024);
  ASSERT_TRUE(a.Put("a.bin", content).ok());
  ASSERT_TRUE(b.Put("b.bin", content).ok());
  ASSERT_TRUE(b.SyncMetadata().ok());

  auto get = b.Get("a.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(get->integrity_rejected_shares, 0u);
  ExpectEveryCspClean(b);
}

// The same pair, read as a sequential GetRange stream: the foreground
// gathers and the readahead prefetches (which read with quarantine on)
// both read B's own layout.
TEST(ShareIntegrityTest, MixedTRangeReadsAndReadaheadReadTheTableLayout) {
  MixedTCloud cloud;
  CyrusClient& a = cloud.AddDevice("device-a", 2);
  CyrusClient& b = cloud.AddDevice("device-b", 3);
  Rng rng(0x17E6000B);
  const Bytes content = RandomContent(rng, 20 * 1024);
  ASSERT_TRUE(a.Put("a.bin", content).ok());
  ASSERT_TRUE(b.Put("b.bin", content).ok());
  ASSERT_TRUE(b.SyncMetadata().ok());

  constexpr uint64_t kStep = 2048;
  for (uint64_t offset = 0; offset < content.size(); offset += kStep) {
    SCOPED_TRACE(StrCat("offset ", offset));
    auto range = b.GetRange("a.bin", offset, kStep);
    ASSERT_TRUE(range.ok()) << range.status();
    const uint64_t end = std::min<uint64_t>(offset + kStep, content.size());
    EXPECT_EQ(range->content, Bytes(content.begin() + static_cast<ptrdiff_t>(offset),
                                    content.begin() + static_cast<ptrdiff_t>(end)));
    EXPECT_EQ(range->integrity_rejected_shares, 0u);
  }
  b.WaitForReadahead();
  EXPECT_GT(b.readahead_stats().issued, 0u);
  ExpectEveryCspClean(b);
}

// A republish carries the table's chunk parameters with its rows: after B
// republishes A's version, a fresh device C reads t = 3 for A's chunks
// next to B's t = 3 rows, and reads both files.
TEST(ShareIntegrityTest, RepublishCarriesTheTablesChunkParameters) {
  MixedTCloud cloud;
  CyrusClient& a = cloud.AddDevice("device-a", 2);
  CyrusClient& b = cloud.AddDevice("device-b", 3);
  Rng rng(0x17E6000C);
  const Bytes content = RandomContent(rng, 20 * 1024);
  auto put = a.Put("a.bin", content);
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_TRUE(b.Put("b.bin", content).ok());
  ASSERT_TRUE(b.SyncMetadata().ok());
  ASSERT_TRUE(b.RebalanceMetadata().ok());

  CyrusClient& c = cloud.AddDevice("device-c", 2);
  ASSERT_TRUE(c.Recover().ok());
  const FileVersion* version = c.tree().Find(put->version_id);
  ASSERT_NE(version, nullptr);
  ASSERT_FALSE(version->chunks.empty());
  for (const ChunkRecord& chunk : version->chunks) {
    EXPECT_EQ(chunk.t, 3u) << chunk.id.ToHex();
  }
  for (const char* name : {"a.bin", "b.bin"}) {
    SCOPED_TRACE(name);
    auto get = c.Get(name);
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_EQ(get->content, content);
    EXPECT_EQ(get->integrity_rejected_shares, 0u);
  }
  ExpectEveryCspClean(c);
}

// REST mapping: integrity and data-loss failures are upstream (502), typed
// by name in the body, and distinct from generic 500s.
TEST(ShareIntegrityTest, RestMapsIntegrityFailuresTo502) {
  EXPECT_EQ(HttpStatusForGatewayError(IntegrityError("rotten")), 502);
  EXPECT_EQ(HttpStatusForGatewayError(DataLossError("gone")), 502);
  EXPECT_EQ(HttpStatusForGatewayError(InternalError("bug")), 500);
  EXPECT_EQ(HttpStatusForGatewayError(UnavailableError("down")), 503);
  EXPECT_EQ(StatusCodeName(StatusCode::kIntegrity), "integrity");
}

// Seeded reproducibility: two injector stacks with identical seeds corrupt
// identically - same uploads corrupted, same stored bytes - and the at-rest
// rot hook is deterministic (flipping the same byte twice restores the
// original object).
TEST(ShareIntegrityTest, FaultScheduleIsSeededReproducible) {
  auto run = [](uint64_t seed) {
    obs::MetricsRegistry metrics;
    SimulatedCspOptions o;
    o.id = "repro-csp";
    FaultInjectionOptions faults;
    faults.seed = seed;
    faults.metrics = &metrics;
    faults.upload_corrupt_prob = 0.5;
    FaultInjectingConnector conn(std::make_shared<SimulatedCsp>(o), faults);
    EXPECT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
    std::vector<Bytes> stored;
    Rng data_rng(99);
    for (int i = 0; i < 16; ++i) {
      Bytes data = RandomContent(data_rng, 256);
      EXPECT_TRUE(conn.Upload(StrCat("obj-", i), data).ok());
      auto read = conn.Download(StrCat("obj-", i));
      EXPECT_TRUE(read.ok());
      stored.push_back(*std::move(read));
    }
    return std::make_pair(std::move(stored), conn.counters().uploads_corrupted);
  };
  auto [bytes_a, corrupted_a] = run(0xFEED);
  auto [bytes_b, corrupted_b] = run(0xFEED);
  auto [bytes_c, corrupted_c] = run(0xBEEF);
  EXPECT_GT(corrupted_a, 0u);
  EXPECT_EQ(corrupted_a, corrupted_b);
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_NE(bytes_a, bytes_c);  // a different seed corrupts differently

  // RotStoredObject is an involution at a fixed byte index.
  obs::MetricsRegistry metrics;
  SimulatedCspOptions o;
  o.id = "rot-csp";
  FaultInjectionOptions faults;
  faults.metrics = &metrics;
  FaultInjectingConnector conn(std::make_shared<SimulatedCsp>(o), faults);
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  Rng data_rng(7);
  const Bytes original = RandomContent(data_rng, 64);
  ASSERT_TRUE(conn.Upload("rotme", original).ok());
  ASSERT_TRUE(conn.RotStoredObject("rotme", 11).ok());
  auto rotted = conn.Download("rotme");
  ASSERT_TRUE(rotted.ok());
  EXPECT_NE(*rotted, original);
  ASSERT_TRUE(conn.RotStoredObject("rotme", 11).ok());
  auto restored = conn.Download("rotme");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, original);
  EXPECT_EQ(conn.counters().objects_rotted, 2u);
  EXPECT_TRUE(conn.RotStoredObject("missing", 0).code() == StatusCode::kNotFound);
}

}  // namespace
}  // namespace cyrus
