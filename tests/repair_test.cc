// Tests of the proactive scrub & repair engine and the fault-injecting
// connector decorator it is built to survive.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/crypto/naming.h"
#include "src/meta/metadata.h"
#include "src/util/retry.h"
#include "src/util/rng.h"

namespace cyrus {
namespace {

constexpr int kNumCsps = 5;

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

// A client over kNumCsps simulated stores, each behind a fault-injecting
// wrapper (faults disabled unless the test turns a knob).
struct RepairCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> stores;
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::unique_ptr<CyrusClient> client;
};

RepairCloud MakeCloud(CyrusConfig config = SmallConfig(),
                      FaultInjectionOptions fault_options = {}) {
  RepairCloud cloud;
  auto client = CyrusClient::Create(std::move(config));
  EXPECT_TRUE(client.ok()) << client.status();
  cloud.client = std::move(client).value();
  for (int i = 0; i < kNumCsps; ++i) {
    SimulatedCspOptions o;
    o.id = "csp" + std::to_string(i);
    o.naming = (i % 2 == 0) ? NamingPolicy::kNameKeyed : NamingPolicy::kIdKeyed;
    cloud.stores.push_back(std::make_shared<SimulatedCsp>(o));
    FaultInjectionOptions per_csp = fault_options;
    per_csp.seed = fault_options.seed + static_cast<uint64_t>(i);
    cloud.faults.push_back(std::make_shared<FaultInjectingConnector>(
        cloud.stores.back(), per_csp));
    CspProfile profile;
    profile.rtt_ms = 100 + 10.0 * i;
    profile.download_bytes_per_sec = (i < 2) ? 15e6 : 2e6;
    profile.upload_bytes_per_sec = profile.download_bytes_per_sec / 2;
    auto added = cloud.client->AddCsp(cloud.faults.back(), profile, Credentials{"token"});
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

// ---------------------------------------------------------------------------
// FaultInjectingConnector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ForwardsToInnerStoreWhenHealthy) {
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, FaultInjectionOptions{});
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  const Bytes payload{1, 2, 3};
  ASSERT_TRUE(conn.Upload("obj", payload).ok());
  auto back = conn.Download("obj");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, payload);
  auto listing = conn.List("");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 1u);
  ASSERT_TRUE(conn.Delete("obj").ok());
  EXPECT_EQ(conn.counters().calls, 4u);
  EXPECT_EQ(conn.counters().transient_errors, 0u);
  EXPECT_EQ(store->object_count(), 0u);
}

TEST(FaultInjectorTest, PermanentOutageFailsEverythingUntilRevived) {
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, FaultInjectionOptions{});
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(conn.Upload("obj", Bytes{1}).ok());

  conn.set_permanently_down(true);
  EXPECT_TRUE(conn.permanently_down());
  EXPECT_EQ(conn.Upload("x", Bytes{2}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.Download("obj").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.List("").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.Delete("obj").code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.Authenticate(Credentials{"token"}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.counters().outage_errors, 5u);

  conn.set_permanently_down(false);
  auto back = conn.Download("obj");
  ASSERT_TRUE(back.ok()) << back.status();  // the stored object survived
  EXPECT_EQ(*back, Bytes{1});
}

TEST(FaultInjectorTest, TransientErrorScheduleIsSeedDeterministic) {
  FaultInjectionOptions options;
  options.transient_error_prob = 0.5;
  options.seed = 7;
  auto run = [&options]() {
    auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
    FaultInjectingConnector conn(store, options);
    EXPECT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(conn.List("").ok());
    }
    return outcomes;
  };
  const std::vector<bool> first = run();
  EXPECT_EQ(first, run());
  // Roughly half should fail; exact count is pinned by the seed.
  size_t failures = 0;
  for (bool ok : first) {
    failures += ok ? 0 : 1;
  }
  EXPECT_GT(failures, 16u);
  EXPECT_LT(failures, 48u);
}

TEST(FaultInjectorTest, SilentUploadLossReportsSuccessButStoresNothing) {
  FaultInjectionOptions options;
  options.upload_loss_prob = 1.0;
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, options);
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(conn.Upload("obj", Bytes{1, 2}).ok());  // the lie
  EXPECT_EQ(store->object_count(), 0u);
  EXPECT_EQ(conn.Download("obj").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(conn.counters().uploads_lost, 1u);
}

TEST(FaultInjectorTest, DestroyObjectIsSilent) {
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, FaultInjectionOptions{});
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(conn.Upload("a", Bytes{1}).ok());
  ASSERT_TRUE(conn.Upload("b", Bytes{2}).ok());
  ASSERT_TRUE(conn.DestroyObject("a").ok());
  EXPECT_EQ(conn.DestroyObject("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(store->object_count(), 1u);
  EXPECT_EQ(conn.counters().objects_destroyed, 1u);

  auto destroyed = conn.DestroyRandomObjects(1.0);
  ASSERT_TRUE(destroyed.ok());
  EXPECT_EQ(*destroyed, 1u);
  EXPECT_EQ(store->object_count(), 0u);
}

TEST(FaultInjectorTest, LatencyAccumulatesOnTheVirtualClock) {
  FaultInjectionOptions options;
  options.latency_mean_ms = 25.0;
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, options);
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(conn.Upload("obj" + std::to_string(i), Bytes{1}).ok());
  }
  const double total = conn.counters().injected_latency_ms;
  EXPECT_GT(total, 100 * 25.0 * 0.3);  // exponential draws, loosely bounded
  EXPECT_LT(total, 100 * 25.0 * 3.0);
}

TEST(FaultInjectorTest, RetryWithBackoffMasksTransientErrors) {
  FaultInjectionOptions options;
  options.transient_error_prob = 0.4;
  options.seed = 11;
  auto store = std::make_shared<SimulatedCsp>(SimulatedCspOptions{"s"});
  FaultInjectingConnector conn(store, options);
  ASSERT_TRUE(conn.Authenticate(Credentials{"token"}).ok());
  RetryOptions retry;
  retry.max_attempts = 16;  // (0.4)^16 ~ 4e-7: effectively never exhausted
  for (int i = 0; i < 50; ++i) {
    const std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(RetryWithBackoff(retry, [&] { return conn.Upload(name, Bytes{9}); }).ok());
    auto back = RetryWithBackoff(retry, [&] { return conn.Download(name); });
    ASSERT_TRUE(back.ok()) << back.status();
  }
  EXPECT_GT(conn.counters().transient_errors, 0u);
  EXPECT_EQ(store->object_count(), 50u);
}

// ---------------------------------------------------------------------------
// RepairEngine through CyrusClient
// ---------------------------------------------------------------------------

TEST(RepairTest, ScanOfHealthyStoreReportsNothingDegraded) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(24 * 1024, 1)).ok());
  ASSERT_TRUE(cloud.client->Put("b.bin", RandomContent(8 * 1024, 2)).ok());

  std::vector<ChunkHealth> health = cloud.client->ScrubScan();
  ASSERT_EQ(health.size(), cloud.client->chunk_table().size());
  for (const ChunkHealth& chunk : health) {
    EXPECT_FALSE(chunk.degraded());
    EXPECT_EQ(chunk.dead_locations, 0u);
    EXPECT_GE(chunk.margin(), 0);
  }
  const RepairStats& stats = cloud.client->repair_stats();
  EXPECT_EQ(stats.chunks_degraded, 0u);
  EXPECT_EQ(stats.probe_failures, 0u);
}

TEST(RepairTest, ScrubRestoresRedundancyAfterCspFailures) {
  RepairCloud cloud = MakeCloud();
  const Bytes content_a = RandomContent(30 * 1024, 3);
  const Bytes content_b = RandomContent(12 * 1024, 4);
  auto put = cloud.client->Put("a.bin", content_a);
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_TRUE(cloud.client->Put("b.bin", content_b).ok());
  ASSERT_GT(put->n, cloud.client->config().t);

  // Kill n - t providers: the worst failure the coding must survive.
  const uint32_t losses = put->n - cloud.client->config().t;
  ASSERT_LE(losses, 2u);
  for (uint32_t i = 0; i < losses; ++i) {
    cloud.stores[kNumCsps - 1 - i]->set_available(false);
  }

  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  // The probe discovers the dead CSPs by itself (no MarkCspFailed needed).
  for (uint32_t i = 0; i < losses; ++i) {
    auto state = cloud.client->registry().state(kNumCsps - 1 - i);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, CspState::kFailed);
  }
  EXPECT_EQ(report->stats.chunks_repaired, cloud.client->chunk_table().size());
  EXPECT_EQ(report->stats.chunks_unrepairable, 0u);
  EXPECT_GT(report->stats.shares_rebuilt, 0u);
  EXPECT_GT(report->stats.bytes_moved, 0u);
  EXPECT_TRUE(report->unrepaired.empty());

  // Every chunk is back at its target with no stale dead locations.
  for (const ChunkHealth& chunk : cloud.client->ScrubScan()) {
    EXPECT_FALSE(chunk.degraded());
    EXPECT_GE(chunk.live_shares, chunk.t);
  }
  // Content still round-trips with the dead CSPs still dead.
  auto get = cloud.client->Get("a.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content_a);

  // The republished metadata lets a fresh device recover everything from
  // the surviving CSPs alone.
  CyrusConfig other = SmallConfig("device-2");
  auto second = CyrusClient::Create(other);
  ASSERT_TRUE(second.ok());
  for (int i = 0; i + static_cast<int>(losses) < kNumCsps; ++i) {
    ASSERT_TRUE((*second)->AddCsp(cloud.faults[i], CspProfile{}, Credentials{"token"}).ok());
  }
  ASSERT_TRUE((*second)->Recover().ok());
  auto recovered = (*second)->Get("b.bin");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->content, content_b);
}

TEST(RepairTest, SecondScrubPassIsIdempotent) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(16 * 1024, 5)).ok());
  cloud.stores[4]->set_available(false);
  auto first = cloud.client->ScrubOnce();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->stats.chunks_repaired, 0u);

  auto second = cloud.client->ScrubOnce();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->stats.chunks_degraded, 0u);
  EXPECT_EQ(second->stats.chunks_repaired, 0u);
  EXPECT_EQ(second->stats.bytes_moved, 0u);
  EXPECT_TRUE(second->repaired_chunks.empty());
}

TEST(RepairTest, RebuiltSharesCarryDigests) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(16 * 1024, 5)).ok());
  cloud.stores[4]->set_available(false);
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_GT(scrub->stats.shares_rebuilt, 0u);

  // Every share of every chunk - rebuilt ones included - is recorded with
  // the SHA-1 of the object its CSP actually stores.
  const ChunkTable& table = cloud.client->chunk_table();
  size_t shares = 0;
  for (const Sha1Digest& id : table.AllChunkIds()) {
    const ChunkEntry* entry = table.Find(id);
    for (const ChunkShare& share : entry->shares) {
      ++shares;
      ASSERT_NE(share.csp, 4) << "dead location survived the repair";
      ASSERT_TRUE(share.has_digest())
          << "chunk " << id.ToHex() << " share " << share.share_index;
      auto stored =
          cloud.stores[share.csp]->Download(ShareName(id, share.share_index, entry->t));
      ASSERT_TRUE(stored.ok()) << stored.status();
      EXPECT_EQ(share.digest, Sha1::Hash(*stored));
    }
  }
  EXPECT_GT(shares, 0u);

  // The republished metadata carries them: a fresh device over the
  // surviving CSPs recovers a digest for every share index it learns about.
  auto second = CyrusClient::Create(SmallConfig("device-2"));
  ASSERT_TRUE(second.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*second)->AddCsp(cloud.faults[i], CspProfile{}, Credentials{"token"}).ok());
  }
  ASSERT_TRUE((*second)->Recover().ok());
  const ChunkTable& recovered = (*second)->chunk_table();
  size_t recovered_shares = 0;
  for (const Sha1Digest& id : recovered.AllChunkIds()) {
    for (const ChunkShare& share : recovered.Find(id)->shares) {
      ++recovered_shares;
      EXPECT_TRUE(share.has_digest())
          << "chunk " << id.ToHex() << " share " << share.share_index;
    }
  }
  EXPECT_GT(recovered_shares, 0u);

  // Nothing looks legacy to the integrity sweep, so it upgrades nothing.
  RepairEngineOptions options = cloud.client->repair_engine().options();
  options.integrity_samples_per_pass = 1000;
  cloud.client->repair_engine().set_options(options);
  auto sweep = cloud.client->ScrubOnce();
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_GT(sweep->stats.shares_integrity_checked, 0u);
  EXPECT_EQ(sweep->stats.records_upgraded, 0u);
  EXPECT_EQ(sweep->stats.integrity_failures, 0u);
}

TEST(RepairTest, ScrubCatchesSilentObjectLoss) {
  RepairCloud cloud = MakeCloud();
  const Bytes content = RandomContent(20 * 1024, 6);
  ASSERT_TRUE(cloud.client->Put("a.bin", content).ok());

  // A provider-side incident destroys every object on CSP 2; no API call
  // ever returns an error for it.
  auto destroyed = cloud.faults[2]->DestroyRandomObjects(1.0);
  ASSERT_TRUE(destroyed.ok());
  ASSERT_GT(*destroyed, 0u);

  std::vector<ChunkHealth> before = cloud.client->ScrubScan();
  bool any_degraded = false;
  for (const ChunkHealth& chunk : before) {
    any_degraded = any_degraded || chunk.degraded();
  }
  ASSERT_TRUE(any_degraded);  // only the probe can see this failure mode

  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->stats.chunks_repaired, 0u);
  for (const ChunkHealth& chunk : cloud.client->ScrubScan()) {
    EXPECT_FALSE(chunk.degraded());
  }
  auto get = cloud.client->Get("a.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(RepairTest, RecoveredCspIsReprobedInsteadOfTrusted) {
  RepairCloud cloud = MakeCloud();
  const Bytes content = RandomContent(18 * 1024, 7);
  ASSERT_TRUE(cloud.client->Put("a.bin", content).ok());
  const size_t shares_on_0 = cloud.client->chunk_table().ChunksOnCsp(0).size();
  ASSERT_GT(shares_on_0, 0u);

  // CSP 0 goes down, loses its disk, and comes back empty-handed.
  cloud.faults[0]->set_permanently_down(true);
  ASSERT_TRUE(cloud.client->MarkCspFailed(0).ok());
  ASSERT_TRUE(cloud.faults[0]->DestroyRandomObjects(1.0).ok());
  cloud.faults[0]->set_permanently_down(false);
  ASSERT_TRUE(cloud.client->MarkCspRecovered(0).ok());

  // Recovery must not blindly trust the pre-outage ShareLocations: the CSP
  // is flagged until a scrub re-verifies what it actually holds. The chunk
  // table still lists the (now vanished) shares at this point.
  EXPECT_EQ(cloud.client->csps_pending_reprobe(), std::vector<int>{0});
  EXPECT_EQ(cloud.client->chunk_table().ChunksOnCsp(0).size(), shares_on_0);

  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->stats.chunks_repaired, 0u);
  EXPECT_TRUE(cloud.client->csps_pending_reprobe().empty());
  for (const ChunkHealth& chunk : cloud.client->ScrubScan()) {
    EXPECT_FALSE(chunk.degraded());
  }
  auto get = cloud.client->Get("a.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(RepairTest, RepairCapDefersWorstChunksLast) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(40 * 1024, 8)).ok());
  ASSERT_GT(cloud.client->chunk_table().size(), 1u);
  cloud.stores[4]->set_available(false);

  RepairEngineOptions options = cloud.client->repair_engine().options();
  options.max_repairs_per_pass = 1;
  cloud.client->repair_engine().set_options(options);

  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->stats.chunks_repaired, 1u);
  EXPECT_GT(report->stats.chunks_deferred, 0u);
  EXPECT_FALSE(report->unrepaired.empty());

  // Lifting the cap lets the next pass drain the backlog.
  options.max_repairs_per_pass = 0;
  cloud.client->repair_engine().set_options(options);
  auto drained = cloud.client->ScrubOnce();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_GT(drained->stats.chunks_repaired, 0u);
  EXPECT_TRUE(drained->unrepaired.empty());
}

TEST(RepairTest, BandwidthBudgetDefersRepairs) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(40 * 1024, 9)).ok());
  cloud.stores[4]->set_available(false);

  RepairEngineOptions options = cloud.client->repair_engine().options();
  options.bandwidth_budget_bytes = 1;  // too small for any repair
  cloud.client->repair_engine().set_options(options);
  auto starved = cloud.client->ScrubOnce();
  ASSERT_TRUE(starved.ok()) << starved.status();
  EXPECT_EQ(starved->stats.chunks_repaired, 0u);
  EXPECT_GT(starved->stats.chunks_deferred, 0u);
  EXPECT_EQ(starved->stats.bytes_moved, 0u);

  options.bandwidth_budget_bytes = 0;  // unlimited
  cloud.client->repair_engine().set_options(options);
  auto full = cloud.client->ScrubOnce();
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_GT(full->stats.chunks_repaired, 0u);
  for (const ChunkHealth& chunk : cloud.client->ScrubScan()) {
    EXPECT_FALSE(chunk.degraded());
  }
}

TEST(RepairTest, ChunkBelowThresholdIsUnrepairable) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(6 * 1024, 10)).ok());

  // Kill every holder of one chunk except a single share: fewer than t
  // survive, so the scrub must report the loss rather than "repair" it.
  const std::vector<Sha1Digest> ids = cloud.client->chunk_table().AllChunkIds();
  ASSERT_FALSE(ids.empty());
  const ChunkEntry* entry = cloud.client->chunk_table().Find(ids.front());
  ASSERT_NE(entry, nullptr);
  std::set<int> holders;
  for (const ChunkShare& share : entry->shares) {
    holders.insert(share.csp);
  }
  ASSERT_GT(holders.size(), 1u);
  size_t killed = 0;
  for (int csp : holders) {
    if (killed + 1 >= holders.size()) {
      break;  // leave exactly one holder alive
    }
    cloud.stores[csp]->set_available(false);
    ++killed;
  }

  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->stats.chunks_unrepairable, 0u);
  EXPECT_FALSE(report->unrepaired.empty());
}

TEST(RepairTest, ScrubTransfersFeedTheFlowSimulator) {
  RepairCloud cloud = MakeCloud();
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(20 * 1024, 11)).ok());
  cloud.stores[4]->set_available(false);
  auto report = cloud.client->ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->stats.chunks_repaired, 0u);
  // Repair downloads, uploads, and the metadata republish are all
  // journaled; the flow simulator can price a scrub pass like any Get.
  bool saw_get = false;
  bool saw_put = false;
  bool saw_meta = false;
  for (const TransferRecord& record : report->transfer.records) {
    saw_get = saw_get || record.kind == TransferKind::kGet;
    saw_put = saw_put || record.kind == TransferKind::kPut;
    saw_meta = saw_meta || record.kind == TransferKind::kPutMeta;
  }
  EXPECT_TRUE(saw_get);
  EXPECT_TRUE(saw_put);
  EXPECT_TRUE(saw_meta);
}

}  // namespace
}  // namespace cyrus
