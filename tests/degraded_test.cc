// Degraded-mode chaos battery (ctest label `chaos`; scripts/check.sh
// --chaos, also run under TSan in the tsan tier).
//
// Exercises the robustness engine end to end against hard CSP outages,
// mid-Put crashes, slow providers, and silent download corruption:
//   - quorum Put: a file commits degraded when a provider is down for the
//     whole run, the shortfall lands in the repair debt ledger, and a
//     scrub pass after recovery drives the debt gauge back to zero;
//   - learned rates: a provider sleeping tens of milliseconds per call
//     while advertising the fastest link serves no share of a Get once
//     its Put transfers have shown it slow;
//   - CSP outage: a failed provider leaves placement at once and stays out
//     across scrubs until MarkCspRecovered re-admits it for reprobe;
//   - crash-safe Put: an interrupted Put is rolled forward (shares were
//     durable) or its orphan shares are deleted from every provider.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
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

struct ChaosCloud {
  // Declared first so it is destroyed last: the fault injectors and the
  // client record into it until they are gone.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::unique_ptr<CyrusClient> client;
};

// Base config: t=2, test chunker (~1 KB chunks), private metrics registry.
CyrusConfig ChaosConfig(obs::MetricsRegistry* metrics, uint64_t seed) {
  CyrusConfig config;
  config.client_id = "chaos-device";
  config.key_string = StrCat("chaos key ", seed);
  config.t = 2;
  config.epsilon = 1e-4;
  config.chunker = ChunkerOptions::ForTesting();
  config.transfer_concurrency = 4;
  config.transfer_retry.seed = seed;
  config.transfer_retry.max_attempts = 2;
  config.metrics = metrics;
  return config;
}

// Registers `num_csps` simulated providers behind fault injectors; the
// caller customizes per-CSP faults via `tweak(i, options)` before wiring.
ChaosCloud MakeChaosCloud(
    CyrusConfig config, int num_csps, uint64_t seed,
    const std::function<void(int, FaultInjectionOptions&)>& tweak = {},
    const std::function<void(int, CspProfile&)>& profile_tweak = {}) {
  ChaosCloud cloud;
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
    o.id = StrCat("chaos-csp", i);
    FaultInjectionOptions faults;
    faults.seed = seed * 31 + static_cast<uint64_t>(i);
    faults.metrics = metrics;
    if (tweak) {
      tweak(i, faults);
    }
    auto injector = std::make_shared<FaultInjectingConnector>(
        std::make_shared<SimulatedCsp>(o), faults);
    cloud.faults.push_back(injector);
    CspProfile profile;
    profile.rtt_ms = 40.0;
    profile.download_bytes_per_sec = 10e6;
    profile.upload_bytes_per_sec = 5e6;
    if (profile_tweak) {
      profile_tweak(i, profile);
    }
    auto added = cloud.client->AddCsp(injector, profile, Credentials{"token"});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return cloud;
}

size_t TotalObjects(const ChaosCloud& cloud) {
  size_t total = 0;
  for (const auto& fault : cloud.faults) {
    auto listing = fault->List("");
    if (listing.ok()) {
      total += listing->size();
    }
  }
  return total;
}

// Acceptance chaos path: one CSP hard-down for the whole run. A pipelined
// multi-chunk Put must still commit (degraded), the missing shares must
// show up in the cyrus_degraded_shares debt gauge, and a scrub pass after
// the provider recovers must rebuild them and drive the gauge to zero.
TEST(DegradedChaosTest, QuorumPutDegradedThenScrubHeals) {
  const uint64_t seed = 0xDE64AD01;
  Rng rng(seed);
  CyrusConfig config = ChaosConfig(nullptr, seed);
  // Force the Eq.-1 sizing off the feasible range so Put falls back to
  // n = |active| = 5: every chunk then wants a share on every CSP and the
  // down provider's share cannot be re-placed elsewhere.
  config.default_failure_prob = 0.5;
  config.epsilon = 1e-9;
  config.put_failure_budget = 1;
  ChaosCloud cloud = MakeChaosCloud(std::move(config), /*num_csps=*/5, seed);
  // Down from just after registration (AddCsp authenticates) through the
  // whole transfer: the provider never sees a single share.
  cloud.faults[0]->set_permanently_down(true);

  const Bytes content = RandomContent(rng, 16 * 1024);
  auto put = cloud.client->Put("degraded-file", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->n, 5u);
  EXPECT_GT(put->degraded_chunks, 0u);
  EXPECT_GT(put->missing_shares, 0u);

  // The debt is booked: ledger and gauge agree and are nonzero.
  RepairEngine& repair = cloud.client->repair_engine();
  EXPECT_GT(repair.OutstandingDegradedShares(), 0u);
  obs::MetricsRegistry* metrics = cloud.metrics.get();
  EXPECT_GT(metrics->GetGauge("cyrus_degraded_shares", {}, "")->value(), 0.0);

  // Degraded read: quorum shares are enough to reconstruct.
  auto get = cloud.client->Get("degraded-file");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);

  // Provider comes back; the scrub pass completes the degraded writes.
  cloud.faults[0]->set_permanently_down(false);
  ASSERT_TRUE(cloud.client->MarkCspRecovered(0).ok());
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_GT(scrub->stats.shares_rebuilt, 0u);
  EXPECT_EQ(repair.OutstandingDegradedShares(), 0u);
  EXPECT_EQ(metrics->GetGauge("cyrus_degraded_shares", {}, "")->value(), 0.0);
  EXPECT_EQ(metrics->GetGauge("cyrus_degraded_chunks", {}, "")->value(), 0.0);

  // Every chunk is back at full redundancy and decodes clean.
  for (const ChunkHealth& health : cloud.client->ScrubScan()) {
    EXPECT_EQ(health.missing(), 0u) << health.chunk_id.ToHex();
  }
  auto get_after = cloud.client->Get("degraded-file");
  ASSERT_TRUE(get_after.ok()) << get_after.status();
  EXPECT_EQ(get_after->content, content);
}

// Satellite: two of six CSPs hard-down from the start. With a failure
// budget of 2 the Put must still succeed (degraded), and the content must
// round-trip through the surviving providers.
TEST(DegradedChaosTest, PutSucceedsWithTwoCspsHardDown) {
  const uint64_t seed = 0xDE64AD02;
  Rng rng(seed);
  CyrusConfig config = ChaosConfig(nullptr, seed);
  config.default_failure_prob = 0.5;
  config.epsilon = 1e-9;  // infeasible -> n = |active| = 6
  config.put_failure_budget = 2;
  ChaosCloud cloud = MakeChaosCloud(std::move(config), /*num_csps=*/6, seed);
  cloud.faults[0]->set_permanently_down(true);
  cloud.faults[1]->set_permanently_down(true);

  const Bytes content = RandomContent(rng, 12 * 1024);
  auto put = cloud.client->Put("two-down", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_GT(put->degraded_chunks, 0u);

  auto get = cloud.client->Get("two-down");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

// One provider sleeps a seeded U[0, 30] real milliseconds per call while
// advertising the fastest link and a 1 ms RTT, so its profile alone would
// put it in the primary set of every chunk. The Put's uploads already run
// far past that profile, so the learned rates keep every later Get off it,
// and the reassembled bytes stay intact.
TEST(DegradedChaosTest, LearnedRatesSteerGetsOffSlowCsp) {
  const uint64_t seed = 0xDE64AD03;
  Rng rng(seed);
  ChaosCloud cloud = MakeChaosCloud(
      ChaosConfig(nullptr, seed), /*num_csps=*/3, seed,
      [](int i, FaultInjectionOptions& f) {
        if (i == 0) {
          f.real_sleep_max_ms = 30.0;
        }
      },
      [](int i, CspProfile& profile) {
        if (i == 0) {
          profile.rtt_ms = 1.0;
        }
        profile.download_bytes_per_sec = (i == 0) ? 50e6 : 8e6;
      });

  const Bytes content = RandomContent(rng, 12 * 1024);
  auto put = cloud.client->Put("slow-provider", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_GT(put->transfer.BytesToCsp(0), 0u);

  for (int round = 0; round < 3; ++round) {
    auto get = cloud.client->Get("slow-provider");
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_EQ(get->content, content);
    EXPECT_GT(get->transfer.CountOf(TransferKind::kGet), 0u);
    for (const TransferRecord& r : get->transfer.records) {
      if (r.kind == TransferKind::kGet) {
        EXPECT_NE(r.csp, 0) << "round " << round << ": " << r.object_name;
      }
    }
  }
}

// The one health path: a CSP whose failure survives retries leaves
// placement at once, and a provider coming back does not re-admit it by
// itself - scrubbing leaves it failed until MarkCspRecovered, which flags
// it for the next scrub's reprobe.
TEST(DegradedChaosTest, FailedCspStaysOutUntilRecovered) {
  const uint64_t seed = 0xDE64AD04;
  Rng rng(seed);
  ChaosCloud cloud = MakeChaosCloud(
      ChaosConfig(nullptr, seed), /*num_csps=*/4, seed, /*tweak=*/{},
      [](int i, CspProfile& profile) {
        // The doomed CSP is the selector's first choice, so the Get is
        // guaranteed to hit it while it is down.
        profile.download_bytes_per_sec = (i == 0) ? 50e6 : 8e6;
      });
  auto state_of_csp0 = [&] {
    auto state = cloud.client->registry().state(0);
    EXPECT_TRUE(state.ok()) << state.status();
    return state.ok() ? *state : CspState::kRemoved;
  };

  const Bytes content = RandomContent(rng, 8 * 1024);
  auto put = cloud.client->Put("outage-file", content);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(state_of_csp0(), CspState::kActive);

  // Provider dies; the gather fails over to the other holders and the
  // failed downloads mark the CSP failed.
  cloud.faults[0]->set_permanently_down(true);
  auto get = cloud.client->Get("outage-file");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(state_of_csp0(), CspState::kFailed);

  // Provider recovers, time passes, a scrub runs: the CSP stays failed.
  cloud.faults[0]->set_permanently_down(false);
  cloud.client->set_time(cloud.client->now() + 60.0);
  auto scrub = cloud.client->ScrubOnce();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_EQ(state_of_csp0(), CspState::kFailed);

  // Re-admission is explicit, and the next scrub re-verifies the CSP.
  ASSERT_TRUE(cloud.client->MarkCspRecovered(0).ok());
  EXPECT_EQ(state_of_csp0(), CspState::kActive);
  EXPECT_EQ(cloud.client->csps_pending_reprobe(), std::vector<int>{0});
  auto reprobe = cloud.client->ScrubOnce();
  ASSERT_TRUE(reprobe.ok()) << reprobe.status();
  EXPECT_TRUE(cloud.client->csps_pending_reprobe().empty());

  auto get_after = cloud.client->Get("outage-file");
  ASSERT_TRUE(get_after.ok()) << get_after.status();
  EXPECT_EQ(get_after->content, content);
}

// Crash roll-forward: every share lands, then the client "dies" during the
// metadata publish (each provider crashes after one successful upload).
// The next session must roll the journaled intent forward and serve the
// file.
TEST(DegradedChaosTest, CrashSafePutRollsForward) {
  const uint64_t seed = 0xDE64AD05;
  Rng rng(seed);
  const std::string journal_path =
      StrCat(testing::TempDir(), "/cyrus-journal-fwd-", seed, ".log");
  std::remove(journal_path.c_str());

  auto make_config = [&](uint64_t salt) {
    CyrusConfig config = ChaosConfig(nullptr, seed);
    config.transfer_concurrency = 1;  // deterministic upload order
    config.transfer_retry.max_attempts = 1;
    config.journal_path = journal_path;
    (void)salt;
    return config;
  };
  ChaosCloud cloud = MakeChaosCloud(make_config(0), /*num_csps=*/3, seed,
                                    [](int, FaultInjectionOptions& f) {
                                      f.down_after_uploads = 1;
                                    });

  const Bytes content = RandomContent(rng, 200);  // single chunk
  auto put = cloud.client->Put("crashed-file", content);
  // The chunk's shares landed (first upload per provider), then every
  // provider died before the metadata reached meta_t of them.
  ASSERT_FALSE(put.ok());
  ASSERT_NE(cloud.client->journal(), nullptr);
  ASSERT_EQ(cloud.client->journal()->PendingIntents().size(), 1u);
  EXPECT_TRUE(cloud.client->journal()->PendingIntents()[0].has_metadata);

  // "Restart": drop the client (closing the journal), revive the
  // providers, and bring up a fresh session over the same accounts.
  cloud.client.reset();
  for (auto& fault : cloud.faults) {
    fault->set_permanently_down(false);
  }
  auto client2 = CyrusClient::Create(make_config(1));
  ASSERT_TRUE(client2.ok()) << client2.status();
  for (size_t i = 0; i < cloud.faults.size(); ++i) {
    CspProfile profile;
    auto added = (*client2)->AddCsp(cloud.faults[i], profile, Credentials{"token"});
    ASSERT_TRUE(added.ok()) << added.status();
  }
  auto recovery = (*client2)->RecoverFromJournal();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovery->intents_seen, 1u);
  EXPECT_EQ(recovery->rolled_forward, 1u);
  EXPECT_EQ(recovery->rolled_back, 0u);
  EXPECT_TRUE((*client2)->journal()->PendingIntents().empty());

  auto get = (*client2)->Get("crashed-file");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  std::remove(journal_path.c_str());
}

// Crash roll-back: the Put dies mid-scatter with only a sub-quorum of one
// chunk's shares durable. The next session must delete every journaled
// orphan object - verified by listing all providers - and retire the
// intent.
TEST(DegradedChaosTest, CrashSafePutDeletesOrphans) {
  const uint64_t seed = 0xDE64AD06;
  Rng rng(seed);
  const std::string journal_path =
      StrCat(testing::TempDir(), "/cyrus-journal-gc-", seed, ".log");
  std::remove(journal_path.c_str());

  auto make_config = [&] {
    CyrusConfig config = ChaosConfig(nullptr, seed);
    config.transfer_concurrency = 1;    // strictly sequential chunks
    config.pipeline_window_chunks = 1;
    config.transfer_retry.max_attempts = 1;
    config.journal_path = journal_path;
    return config;
  };
  // Providers 0 and 1 crash after their first successful upload: chunk 1
  // scatters fully, chunk 2 then reaches only provider 2 and the Put dies
  // below quorum with no metadata record.
  ChaosCloud cloud = MakeChaosCloud(make_config(), /*num_csps=*/3, seed,
                                    [](int i, FaultInjectionOptions& f) {
                                      if (i < 2) {
                                        f.down_after_uploads = 1;
                                      }
                                    });

  const Bytes content = RandomContent(rng, 8 * 1024);  // multi-chunk
  auto put = cloud.client->Put("orphaned-file", content);
  ASSERT_FALSE(put.ok());
  ASSERT_NE(cloud.client->journal(), nullptr);
  ASSERT_EQ(cloud.client->journal()->PendingIntents().size(), 1u);
  EXPECT_FALSE(cloud.client->journal()->PendingIntents()[0].has_metadata);
  EXPECT_GT(TotalObjects(cloud), 0u);  // orphan shares really exist

  cloud.client.reset();
  for (auto& fault : cloud.faults) {
    fault->set_permanently_down(false);
  }
  auto client2 = CyrusClient::Create(make_config());
  ASSERT_TRUE(client2.ok()) << client2.status();
  for (size_t i = 0; i < cloud.faults.size(); ++i) {
    CspProfile profile;
    auto added = (*client2)->AddCsp(cloud.faults[i], profile, Credentials{"token"});
    ASSERT_TRUE(added.ok()) << added.status();
  }
  auto recovery = (*client2)->RecoverFromJournal();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovery->intents_seen, 1u);
  EXPECT_EQ(recovery->rolled_back, 1u);
  EXPECT_EQ(recovery->rolled_forward, 0u);
  EXPECT_GT(recovery->orphan_shares_deleted, 0u);
  EXPECT_TRUE((*client2)->journal()->PendingIntents().empty());

  // Every provider is empty again: no orphan survived the roll-back.
  EXPECT_EQ(TotalObjects(cloud), 0u);
  std::remove(journal_path.c_str());
}

// Satellite: seeded download corruption. Every Download from one provider
// returns flipped bytes; the decode-integrity path must detect it, pull
// the redundant shares, error-correct, and still return intact content.
TEST(DegradedChaosTest, DownloadCorruptionIsCorrected) {
  const uint64_t seed = 0xDE64AD07;
  Rng rng(seed);
  CyrusConfig config = ChaosConfig(nullptr, seed);
  // Pin n = 5: every chunk keeps a share on the corrupting CSP, and with
  // t = 2 the decoder can correct floor((5-2)/2) = 1 bad share.
  config.default_failure_prob = 0.5;
  config.epsilon = 1e-9;
  ChaosCloud cloud = MakeChaosCloud(
      std::move(config), /*num_csps=*/5, seed,
      [](int i, FaultInjectionOptions& f) {
        if (i == 0) {
          f.download_corrupt_prob = 1.0;  // every download flips bytes
        }
      },
      [](int i, CspProfile& profile) {
        // The corrupting CSP looks fastest, so the selector picks it.
        profile.download_bytes_per_sec = (i == 0) ? 50e6 : 8e6;
      });

  const Bytes content = RandomContent(rng, 6 * 1024);
  auto put = cloud.client->Put("rotten-share", content);
  ASSERT_TRUE(put.ok()) << put.status();

  auto get = cloud.client->Get("rotten-share");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_GT(cloud.faults[0]->counters().downloads_corrupted, 0u);
}

}  // namespace
}  // namespace cyrus
