#include <gtest/gtest.h>

#include "src/cloud/availability.h"
#include "src/cloud/registry.h"
#include "src/cloud/simulated_csp.h"
#include "src/util/bytes.h"

namespace cyrus {
namespace {

SimulatedCspOptions Opts(std::string id, NamingPolicy naming = NamingPolicy::kNameKeyed) {
  SimulatedCspOptions o;
  o.id = std::move(id);
  o.naming = naming;
  return o;
}

// --- SimulatedCsp ---

TEST(SimulatedCspTest, RequiresAuthentication) {
  SimulatedCsp csp(Opts("dropbox"));
  EXPECT_EQ(csp.Upload("a", ToBytes("x")).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(csp.Authenticate(Credentials{"wrong"}).code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  EXPECT_TRUE(csp.Upload("a", ToBytes("x")).ok());
}

TEST(SimulatedCspTest, UploadDownloadRoundTrip) {
  SimulatedCsp csp(Opts("dropbox"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("share-1", ToBytes("payload")).ok());
  auto data = csp.Download("share-1");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "payload");
}

TEST(SimulatedCspTest, DownloadMissingIsNotFound) {
  SimulatedCsp csp(Opts("dropbox"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  EXPECT_EQ(csp.Download("nope").status().code(), StatusCode::kNotFound);
}

TEST(SimulatedCspTest, NameKeyedOverwrites) {
  // Dropbox-style: re-uploading a name replaces the object (paper §3.1).
  SimulatedCsp csp(Opts("dropbox", NamingPolicy::kNameKeyed));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("v1")).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("v2")).ok());
  EXPECT_EQ(csp.object_count(), 1u);
  EXPECT_EQ(ToString(*csp.Download("f")), "v2");
  EXPECT_EQ(csp.used_bytes(), 2u);
}

TEST(SimulatedCspTest, IdKeyedDuplicates) {
  // Google-Drive-style: same name creates a second object; List shows both.
  SimulatedCsp csp(Opts("gdrive", NamingPolicy::kIdKeyed));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("v1")).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("v2")).ok());
  EXPECT_EQ(csp.object_count(), 2u);
  auto listing = csp.List("");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);
  // Download returns the newest.
  EXPECT_EQ(ToString(*csp.Download("f")), "v2");
  EXPECT_EQ(csp.used_bytes(), 4u);
}

TEST(SimulatedCspTest, ListByPrefix) {
  SimulatedCsp csp(Opts("box"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("meta-abc.0", ToBytes("m")).ok());
  ASSERT_TRUE(csp.Upload("meta-def.1", ToBytes("m")).ok());
  ASSERT_TRUE(csp.Upload("share-xyz", ToBytes("s")).ok());
  auto listing = csp.List("meta-");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);
}

TEST(SimulatedCspTest, DeleteIsIdempotent) {
  SimulatedCsp csp(Opts("box"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("x")).ok());
  EXPECT_TRUE(csp.Delete("f").ok());
  EXPECT_TRUE(csp.Delete("f").ok());
  EXPECT_EQ(csp.used_bytes(), 0u);
}

TEST(SimulatedCspTest, QuotaEnforced) {
  SimulatedCspOptions o = Opts("small");
  o.quota_bytes = 10;
  SimulatedCsp csp(o);
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  EXPECT_TRUE(csp.Upload("a", ToBytes("12345")).ok());
  EXPECT_EQ(csp.Upload("b", ToBytes("1234567")).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(csp.Upload("b", ToBytes("12345")).ok());
  // Overwrite within quota is fine (same size).
  EXPECT_TRUE(csp.Upload("a", ToBytes("abcde")).ok());
}

TEST(SimulatedCspTest, OutageMakesEverythingUnavailable) {
  SimulatedCsp csp(Opts("flaky"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("x")).ok());
  csp.set_available(false);
  EXPECT_EQ(csp.Download("f").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(csp.Upload("g", ToBytes("y")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(csp.List("").status().code(), StatusCode::kUnavailable);
  EXPECT_GE(csp.counters().failed_requests, 3u);
  csp.set_available(true);
  EXPECT_TRUE(csp.Download("f").ok());  // data survived the outage
}

TEST(SimulatedCspTest, CountersTrackTraffic) {
  SimulatedCsp csp(Opts("counted"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  ASSERT_TRUE(csp.Upload("f", ToBytes("12345")).ok());
  ASSERT_TRUE(csp.Download("f").ok());
  ASSERT_TRUE(csp.List("").ok());
  EXPECT_EQ(csp.counters().uploads, 1u);
  EXPECT_EQ(csp.counters().downloads, 1u);
  EXPECT_EQ(csp.counters().lists, 1u);
  EXPECT_EQ(csp.counters().bytes_uploaded, 5u);
  EXPECT_EQ(csp.counters().bytes_downloaded, 5u);
}

TEST(SimulatedCspTest, ModifiedTimeUsesVirtualClock) {
  SimulatedCsp csp(Opts("timed"));
  ASSERT_TRUE(csp.Authenticate(Credentials{"token"}).ok());
  csp.set_time(123.0);
  ASSERT_TRUE(csp.Upload("f", ToBytes("x")).ok());
  auto listing = csp.List("");
  ASSERT_TRUE(listing.ok());
  EXPECT_DOUBLE_EQ((*listing)[0].modified_time, 123.0);
}

// --- CspRegistry ---

TEST(CspRegistryTest, AddAndQuery) {
  CspRegistry reg;
  auto csp = std::make_shared<SimulatedCsp>(Opts("dropbox"));
  const int idx = reg.Add(csp, CspProfile{100, 2e6, 1e6, 0});
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(reg.size(), 1u);
  ASSERT_TRUE(reg.name(idx).ok());
  EXPECT_EQ(*reg.name(idx), "dropbox");
  ASSERT_TRUE(reg.profile(idx).ok());
  EXPECT_DOUBLE_EQ(reg.profile(idx)->download_bytes_per_sec, 2e6);
}

TEST(CspRegistryTest, InvalidIndexRejected) {
  CspRegistry reg;
  EXPECT_EQ(reg.connector(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.state(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(CspRegistryTest, StateTransitionsFilterActive) {
  CspRegistry reg;
  for (int i = 0; i < 3; ++i) {
    reg.Add(std::make_shared<SimulatedCsp>(Opts("csp" + std::to_string(i))),
            CspProfile{});
  }
  ASSERT_TRUE(reg.SetState(1, CspState::kFailed).ok());
  EXPECT_EQ(reg.ActiveIndices(), (std::vector<int>{0, 2}));
  ASSERT_TRUE(reg.SetState(1, CspState::kActive).ok());
  EXPECT_EQ(reg.ActiveIndices(), (std::vector<int>{0, 1, 2}));
}

TEST(CspRegistryTest, ClusterCounting) {
  CspRegistry reg;
  reg.Add(std::make_shared<SimulatedCsp>(Opts("a")), CspProfile{100, 1, 1, 0});
  reg.Add(std::make_shared<SimulatedCsp>(Opts("b")), CspProfile{100, 1, 1, 0});
  reg.Add(std::make_shared<SimulatedCsp>(Opts("c")), CspProfile{100, 1, 1, 1});
  reg.Add(std::make_shared<SimulatedCsp>(Opts("d")), CspProfile{100, 1, 1, -1});
  // clusters {0, 1} plus one unclustered CSP = 3 placement domains.
  EXPECT_EQ(reg.NumActiveClusters(), 3u);
  ASSERT_TRUE(reg.SetState(2, CspState::kRemoved).ok());
  EXPECT_EQ(reg.NumActiveClusters(), 2u);
}

// --- AvailabilityMonitor ---

TEST(AvailabilityMonitorTest, NoDataMeansZero) {
  AvailabilityMonitor monitor;
  EXPECT_DOUBLE_EQ(monitor.EstimateFailureProbability(0), 0.0);
  EXPECT_DOUBLE_EQ(monitor.MaxFailureProbability(), 0.0);
}

TEST(AvailabilityMonitorTest, ShortBlipsIgnored) {
  AvailabilityMonitor monitor(/*failure_threshold_seconds=*/3600.0);
  monitor.RecordProbe(0, 0.0, true);
  monitor.RecordProbe(0, 100.0, false);
  monitor.RecordProbe(0, 200.0, true);  // 100 s blip < 1 h threshold
  monitor.RecordProbe(0, 10000.0, true);
  EXPECT_DOUBLE_EQ(monitor.EstimateFailureProbability(0), 0.0);
  EXPECT_FALSE(monitor.IsFailed(0));
}

TEST(AvailabilityMonitorTest, LongOutageCounts) {
  AvailabilityMonitor monitor(/*failure_threshold_seconds=*/3600.0);
  monitor.RecordProbe(0, 0.0, true);
  monitor.RecordProbe(0, 1000.0, false);
  monitor.RecordProbe(0, 2000.0, false);
  monitor.RecordProbe(0, 11000.0, true);  // 10000 s outage
  const double p = monitor.EstimateFailureProbability(0);
  EXPECT_NEAR(p, 10000.0 / 11000.0, 1e-9);
}

TEST(AvailabilityMonitorTest, OngoingOutageDetected) {
  AvailabilityMonitor monitor(/*failure_threshold_seconds=*/3600.0);
  monitor.RecordProbe(0, 0.0, true);
  monitor.RecordProbe(0, 100.0, false);
  EXPECT_FALSE(monitor.IsFailed(0));  // not yet past threshold
  monitor.RecordProbe(0, 100.0 + 7200.0, false);
  EXPECT_TRUE(monitor.IsFailed(0));
  EXPECT_GT(monitor.EstimateFailureProbability(0), 0.0);
}

TEST(AvailabilityMonitorTest, MaxAcrossCsps) {
  AvailabilityMonitor monitor(/*failure_threshold_seconds=*/10.0);
  monitor.RecordProbe(0, 0.0, true);
  monitor.RecordProbe(0, 1000.0, true);  // perfectly healthy
  monitor.RecordProbe(1, 0.0, true);
  monitor.RecordProbe(1, 100.0, false);
  monitor.RecordProbe(1, 600.0, true);  // 500 s outage in 600 s
  EXPECT_NEAR(monitor.MaxFailureProbability(), 500.0 / 600.0, 1e-9);
}

// --- Learned per-request excess ---

TEST(AvailabilityMonitorTest, OneOutlierInEightLeavesTheMedianAtZero) {
  AvailabilityMonitor monitor;
  for (int i = 0; i < 7; ++i) {
    monitor.RecordExcess(0, 0.0);
  }
  monitor.RecordExcess(0, 0.014);  // one scheduling hiccup
  EXPECT_EQ(monitor.MedianExcessSeconds(0), 0.0);
  EXPECT_EQ(monitor.MedianExcessSeconds(1), 0.0);  // never sampled
}

TEST(AvailabilityMonitorTest, FiveSlowInEightMoveTheMedian) {
  AvailabilityMonitor monitor;
  for (int i = 0; i < 3; ++i) {
    monitor.RecordExcess(0, 0.0);
  }
  for (double slow : {0.030, 0.010, 0.020, 0.025, 0.015}) {
    monitor.RecordExcess(0, slow);
  }
  EXPECT_DOUBLE_EQ(monitor.MedianExcessSeconds(0), 0.010);
  // The window keeps the last eight: eight fast calls forget the slow run.
  for (int i = 0; i < 8; ++i) {
    monitor.RecordExcess(0, 0.0);
  }
  EXPECT_EQ(monitor.MedianExcessSeconds(0), 0.0);
}

TEST(AvailabilityMonitorTest, NegativeExcessClampsToZero) {
  AvailabilityMonitor monitor;
  for (int i = 0; i < 8; ++i) {
    monitor.RecordExcess(0, -0.5);  // faster than the profile predicts
  }
  EXPECT_EQ(monitor.MedianExcessSeconds(0), 0.0);
}

TEST(PaperDowntimeTest, RangeMatchesPaper) {
  const auto& hours = PaperAnnualDowntimeHours();
  ASSERT_EQ(hours.size(), 4u);
  EXPECT_DOUBLE_EQ(hours.front(), 1.37);
  EXPECT_DOUBLE_EQ(hours.back(), 18.53);
}

}  // namespace
}  // namespace cyrus
