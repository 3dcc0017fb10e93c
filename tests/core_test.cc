#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/hash_ring.h"
#include "src/core/reliability.h"
#include "src/core/transfer.h"

namespace cyrus {
namespace {

Sha1Digest Id(std::string_view tag) { return Sha1::Hash(tag); }

// --- Reliability (Equation 1) ---

TEST(ReliabilityTest, BinomialCoefficients) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(4, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(4, 2), 6.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 7), 0.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(20, 10), 184756.0);
}

TEST(ReliabilityTest, PerfectCspsNeverLose) {
  EXPECT_DOUBLE_EQ(ChunkLossProbability(2, 3, 0.0), 0.0);
}

TEST(ReliabilityTest, AlwaysDownCspsAlwaysLose) {
  EXPECT_DOUBLE_EQ(ChunkLossProbability(2, 3, 1.0), 1.0);
}

TEST(ReliabilityTest, NoRedundancyEqualsAnyFailure) {
  // t = n = 1: loss iff the single CSP fails.
  EXPECT_NEAR(ChunkLossProbability(1, 1, 0.01), 0.01, 1e-12);
}

TEST(ReliabilityTest, KnownTwoOfThreeValue) {
  // t=2, n=3, p=0.1: loss = P(0 or 1 survivors)
  //   = 0.1^3 + 3 * 0.9 * 0.01 = 0.001 + 0.027 = 0.028.
  EXPECT_NEAR(ChunkLossProbability(2, 3, 0.1), 0.028, 1e-12);
}

TEST(ReliabilityTest, MoreSharesMoreReliable) {
  for (uint32_t n = 2; n < 8; ++n) {
    EXPECT_GT(ChunkLossProbability(2, n, 0.05), ChunkLossProbability(2, n + 1, 0.05));
  }
}

TEST(ReliabilityTest, HigherTNeedsMoreShares) {
  const double p = 0.05, eps = 1e-6;
  auto n2 = MinSharesForReliability(2, p, eps, 20);
  auto n3 = MinSharesForReliability(3, p, eps, 20);
  ASSERT_TRUE(n2.ok());
  ASSERT_TRUE(n3.ok());
  EXPECT_GT(*n3, *n2);
}

TEST(ReliabilityTest, MinimalNIsTight) {
  // The solver's n satisfies the budget but n-1 does not.
  auto n = MinSharesForReliability(2, 0.1, 1e-4, 20);
  ASSERT_TRUE(n.ok());
  EXPECT_LE(ChunkLossProbability(2, *n, 0.1), 1e-4);
  if (*n > 2) {
    EXPECT_GT(ChunkLossProbability(2, *n - 1, 0.1), 1e-4);
  }
}

TEST(ReliabilityTest, TooFewCspsFails) {
  EXPECT_EQ(MinSharesForReliability(3, 0.1, 1e-9, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReliabilityTest, UnreachableBudgetFails) {
  EXPECT_EQ(MinSharesForReliability(2, 0.5, 1e-12, 4).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReliabilityTest, PaperConfigurationsAreOrdered) {
  // Figure 13's observation: (2,4) is far more reliable than (3,4).
  const double p = 10.0 / 8760.0;  // ~10 h/yr downtime
  EXPECT_LT(ChunkLossProbability(2, 4, p), ChunkLossProbability(3, 4, p));
}

// --- HashRing ---

TEST(HashRingTest, AddRemoveContains) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "dropbox", -1).ok());
  EXPECT_TRUE(ring.Contains(0));
  EXPECT_EQ(ring.AddCsp(0, "dup", -1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ring.AddCsp(1, "dropbox", -1).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(ring.RemoveCsp(0).ok());
  EXPECT_FALSE(ring.Contains(0));
  EXPECT_EQ(ring.RemoveCsp(0).code(), StatusCode::kNotFound);
}

TEST(HashRingTest, SelectsNDistinctCsps) {
  HashRing ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  auto selected = ring.SelectCsps(Id("chunk"), 3);
  ASSERT_TRUE(selected.ok());
  std::set<int> uniq(selected->begin(), selected->end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(HashRingTest, SelectionIsDeterministic) {
  HashRing a, b;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.AddCsp(i, "csp" + std::to_string(i), -1).ok());
    ASSERT_TRUE(b.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  EXPECT_EQ(*a.SelectCsps(Id("chunk-x"), 2), *b.SelectCsps(Id("chunk-x"), 2));
}

TEST(HashRingTest, TooFewCspsFails) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "only", -1).ok());
  EXPECT_EQ(ring.SelectCsps(Id("c"), 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HashRingTest, EmptyRingFails) {
  HashRing ring;
  EXPECT_FALSE(ring.SelectCsps(Id("c"), 1).ok());
}

TEST(HashRingTest, BalancesLoadAcrossCsps) {
  // Consistent hashing's point: placements spread evenly (paper §5.3).
  HashRing ring(128);
  const int kCsps = 5;
  for (int i = 0; i < kCsps; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> first_choice_counts;
  const int kChunks = 5000;
  for (int c = 0; c < kChunks; ++c) {
    auto selected = ring.SelectCsps(Id("chunk-" + std::to_string(c)), 1);
    ASSERT_TRUE(selected.ok());
    first_choice_counts[selected->front()]++;
  }
  for (int i = 0; i < kCsps; ++i) {
    EXPECT_GT(first_choice_counts[i], kChunks / kCsps / 2) << "csp " << i;
    EXPECT_LT(first_choice_counts[i], kChunks * 2 / kCsps) << "csp " << i;
  }
}

TEST(HashRingTest, RemovalOnlyRemapsRemovedCspsChunks) {
  // The §5.5 minimal-reshuffle property: removing a CSP must not move
  // placements that did not involve it.
  HashRing ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> before;
  for (int c = 0; c < 500; ++c) {
    before[c] = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
  }
  ASSERT_TRUE(ring.RemoveCsp(2).ok());
  for (int c = 0; c < 500; ++c) {
    const int now = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
    if (before[c] != 2) {
      EXPECT_EQ(now, before[c]) << "chunk " << c << " moved unnecessarily";
    } else {
      EXPECT_NE(now, 2);
    }
  }
}

TEST(HashRingTest, AdditionOnlyStealsFromExistingCsps) {
  // Adding an account must not shuffle placements among the old CSPs: a
  // chunk's first choice either stays put or moves to the *new* CSP
  // (consistent hashing's minimal-disruption property, paper §5.5).
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> before;
  for (int c = 0; c < 500; ++c) {
    before[c] = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
  }
  ASSERT_TRUE(ring.AddCsp(4, "newcomer", -1).ok());
  int moved = 0;
  for (int c = 0; c < 500; ++c) {
    const int now = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
    if (now != before[c]) {
      EXPECT_EQ(now, 4) << "chunk " << c << " moved between old CSPs";
      ++moved;
    }
  }
  // The newcomer takes roughly 1/5 of first choices.
  EXPECT_GT(moved, 500 / 5 / 2);
  EXPECT_LT(moved, 500 * 2 / 5);
}

TEST(HashRingTest, ClusterAwareAvoidsSamePlatform) {
  HashRing ring;
  // Two CSPs on cluster 0, two on cluster 1, one on cluster 2.
  ASSERT_TRUE(ring.AddCsp(0, "a", 0).ok());
  ASSERT_TRUE(ring.AddCsp(1, "b", 0).ok());
  ASSERT_TRUE(ring.AddCsp(2, "c", 1).ok());
  ASSERT_TRUE(ring.AddCsp(3, "d", 1).ok());
  ASSERT_TRUE(ring.AddCsp(4, "e", 2).ok());
  const std::map<int, int> cluster_of = {{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}};
  for (int c = 0; c < 100; ++c) {
    auto selected = ring.SelectCspsClusterAware(Id("c" + std::to_string(c)), 3);
    ASSERT_TRUE(selected.ok());
    std::set<int> clusters;
    for (int csp : *selected) {
      clusters.insert(cluster_of.at(csp));
    }
    EXPECT_EQ(clusters.size(), 3u) << "chunk " << c << " reused a platform";
  }
}

TEST(HashRingTest, ClusterAwareFailsWhenNotEnoughClusters) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "a", 0).ok());
  ASSERT_TRUE(ring.AddCsp(1, "b", 0).ok());
  EXPECT_FALSE(ring.SelectCspsClusterAware(Id("c"), 2).ok());
}

TEST(HashRingTest, ExclusionRespected) {
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  auto selected = ring.SelectCspsExcluding(Id("c"), 2, {0, 1});
  ASSERT_TRUE(selected.ok());
  for (int csp : *selected) {
    EXPECT_GE(csp, 2);
  }
}

// --- TransferReport ---

TEST(TransferReportTest, Accounting) {
  TransferReport report;
  report.records.push_back({TransferKind::kPut, 0, "a", 100, true});
  report.records.push_back({TransferKind::kPut, 1, "b", 200, true});
  report.records.push_back({TransferKind::kPut, 0, "c", 50, false});  // failed
  report.records.push_back({TransferKind::kGet, 0, "d", 70, true});
  EXPECT_EQ(report.TotalBytes(TransferKind::kPut), 300u);
  EXPECT_EQ(report.TotalBytes(TransferKind::kGet), 70u);
  EXPECT_EQ(report.BytesToCsp(0), 170u);
  EXPECT_EQ(report.CountOf(TransferKind::kPut), 3u);

  TransferReport other;
  other.records.push_back({TransferKind::kPutMeta, 2, "m", 10, true});
  report.Append(other);
  EXPECT_EQ(report.records.size(), 5u);
}

TEST(TransferKindTest, Names) {
  EXPECT_EQ(TransferKindName(TransferKind::kPut), "PUT");
  EXPECT_EQ(TransferKindName(TransferKind::kGetMeta), "GET_META");
}

}  // namespace
}  // namespace cyrus
