// Tests for the local metadata cache: snapshot round trip, key
// fingerprinting, crash-safe file I/O, and warm-start semantics (load +
// incremental sync instead of full recover).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/core/local_cache.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

namespace fs = std::filesystem;

CyrusConfig CacheConfig(std::string client_id) {
  CyrusConfig config;
  config.key_string = "cache test key";
  config.client_id = std::move(client_id);
  config.t = 2;
  config.epsilon = 1e-3;
  config.chunker = ChunkerOptions::ForTesting();
  config.cluster_aware = false;
  return config;
}

struct CacheCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  std::unique_ptr<CyrusClient> client;
};

CacheCloud MakeCloud(std::string client_id,
                     std::vector<std::shared_ptr<SimulatedCsp>> csps = {},
                     bool reverse = false) {
  CacheCloud cloud;
  if (csps.empty()) {
    for (int i = 0; i < 4; ++i) {
      cloud.csps.push_back(
          std::make_shared<SimulatedCsp>(SimulatedCspOptions{StrCat("csp", i)}));
    }
  } else {
    cloud.csps = std::move(csps);
  }
  cloud.client = std::move(CyrusClient::Create(CacheConfig(std::move(client_id)))).value();
  std::vector<std::shared_ptr<SimulatedCsp>> order = cloud.csps;
  if (reverse) {
    std::reverse(order.begin(), order.end());
  }
  for (auto& csp : order) {
    CspProfile profile;
    profile.download_bytes_per_sec = 2e6;
    profile.upload_bytes_per_sec = 1e6;
    EXPECT_TRUE(cloud.client->AddCsp(csp, profile, Credentials{"token"}).ok());
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

TEST(LocalCacheTest, EncodeDecodeRoundTrip) {
  CacheCloud cloud = MakeCloud("writer");
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(8 * 1024, 1)).ok());
  ASSERT_TRUE(cloud.client->Put("b.bin", RandomContent(4 * 1024, 2)).ok());

  const Sha1Digest fingerprint = Sha1::Hash(std::string_view("cache test key"));
  const LocalCacheSnapshot snapshot = cloud.client->ExportCache();
  auto back = DecodeLocalCache(EncodeLocalCache(snapshot, fingerprint), fingerprint);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->versions.size(), snapshot.versions.size());
  EXPECT_EQ(back->known_meta_bases, snapshot.known_meta_bases);
}

TEST(LocalCacheTest, WrongKeyFingerprintRejected) {
  CacheCloud cloud = MakeCloud("writer");
  ASSERT_TRUE(cloud.client->Put("a.bin", RandomContent(2048, 3)).ok());
  const Bytes data = EncodeLocalCache(cloud.client->ExportCache(),
                                      Sha1::Hash(std::string_view("cache test key")));
  auto wrong = DecodeLocalCache(data, Sha1::Hash(std::string_view("other key")));
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LocalCacheTest, DecodeRejectsGarbage) {
  const Sha1Digest fp = Sha1::Hash(std::string_view("k"));
  EXPECT_FALSE(DecodeLocalCache(Bytes{1, 2, 3}, fp).ok());
}

TEST(LocalCacheTest, WarmStartSkipsRefetch) {
  CacheCloud cloud = MakeCloud("writer");
  const Bytes content = RandomContent(16 * 1024, 4);
  ASSERT_TRUE(cloud.client->Put("warm.bin", content).ok());
  const LocalCacheSnapshot snapshot = cloud.client->ExportCache();

  // A restarted client imports the cache, then syncs incrementally; the
  // file is immediately known and readable.
  CacheCloud restarted = MakeCloud("writer", cloud.csps);
  ASSERT_TRUE(restarted.client->ImportCache(snapshot).ok());
  EXPECT_EQ(restarted.client->tree().size(), cloud.client->tree().size());
  auto sync = restarted.client->SyncMetadata();
  ASSERT_TRUE(sync.ok());
  // Nothing new to ingest: the sync performed no metadata share downloads.
  auto get = restarted.client->Get("warm.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  EXPECT_EQ(get->transfer.CountOf(TransferKind::kGetMeta), 0u);
}

TEST(LocalCacheTest, WarmStartSurvivesReorderedRegistration) {
  CacheCloud cloud = MakeCloud("writer");
  const Bytes content = RandomContent(12 * 1024, 5);
  ASSERT_TRUE(cloud.client->Put("portable.bin", content).ok());
  const LocalCacheSnapshot snapshot = cloud.client->ExportCache();

  CacheCloud restarted = MakeCloud("writer", cloud.csps, /*reverse=*/true);
  ASSERT_TRUE(restarted.client->ImportCache(snapshot).ok());
  auto get = restarted.client->Get("portable.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
}

TEST(LocalCacheTest, CachePlusIncrementalSyncSeesNewUploads) {
  CacheCloud cloud = MakeCloud("writer");
  ASSERT_TRUE(cloud.client->Put("old.bin", RandomContent(4096, 6)).ok());
  const LocalCacheSnapshot snapshot = cloud.client->ExportCache();
  // Another client uploads after the snapshot was taken.
  const Bytes fresh = RandomContent(4096, 7);
  ASSERT_TRUE(cloud.client->Put("new.bin", fresh).ok());

  CacheCloud restarted = MakeCloud("restarted", cloud.csps);
  ASSERT_TRUE(restarted.client->ImportCache(snapshot).ok());
  ASSERT_TRUE(restarted.client->SyncMetadata().ok());
  auto get = restarted.client->Get("new.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, fresh);
}

TEST(LocalCacheTest, FileSaveLoadRoundTrip) {
  const fs::path path = fs::temp_directory_path() / "cyrus-cache-test.bin";
  fs::remove(path);
  CacheCloud cloud = MakeCloud("writer");
  ASSERT_TRUE(cloud.client->Put("f.bin", RandomContent(2048, 8)).ok());
  const Sha1Digest fp = Sha1::Hash(std::string_view("cache test key"));
  ASSERT_TRUE(SaveLocalCache(path, cloud.client->ExportCache(), fp).ok());
  auto loaded = LoadLocalCache(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->versions.size(), 1u);
  fs::remove(path);
  EXPECT_EQ(LoadLocalCache(path, fp).status().code(), StatusCode::kNotFound);
}

// A snapshot file chopped mid-payload (crash during a copy, torn disk)
// must fail the load cleanly; the client then rebuilds with Recover() and
// still serves every file.
TEST(LocalCacheTest, TruncatedFileFailsLoadAndRecoverServes) {
  const fs::path path = fs::temp_directory_path() / "cyrus-cache-truncated.bin";
  CacheCloud cloud = MakeCloud("writer");
  const Bytes content = RandomContent(8 * 1024, 9);
  ASSERT_TRUE(cloud.client->Put("t.bin", content).ok());
  const Sha1Digest fp = Sha1::Hash(std::string_view("cache test key"));
  ASSERT_TRUE(SaveLocalCache(path, cloud.client->ExportCache(), fp).ok());

  fs::resize_file(path, fs::file_size(path) / 2);
  auto loaded = LoadLocalCache(path, fp);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status();

  CacheCloud restarted = MakeCloud("writer", cloud.csps);
  ASSERT_TRUE(restarted.client->Recover().ok());
  auto get = restarted.client->Get("t.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  fs::remove(path);
}

// A single flipped byte anywhere in the payload must trip the trailing
// checksum - length-prefixed parsing alone can miss bit rot inside a
// serialized blob - and Recover() again restores service.
TEST(LocalCacheTest, CorruptedFileFailsLoadAndRecoverServes) {
  const fs::path path = fs::temp_directory_path() / "cyrus-cache-corrupt.bin";
  CacheCloud cloud = MakeCloud("writer");
  const Bytes content = RandomContent(6 * 1024, 10);
  ASSERT_TRUE(cloud.client->Put("c.bin", content).ok());
  const Sha1Digest fp = Sha1::Hash(std::string_view("cache test key"));
  const Bytes encoded = EncodeLocalCache(cloud.client->ExportCache(), fp);
  ASSERT_TRUE(SaveLocalCache(path, cloud.client->ExportCache(), fp).ok());

  // Flip one byte in the middle of the payload, past every header field.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(static_cast<std::streamoff>(encoded.size() / 2));
    const char flipped = static_cast<char>(encoded[encoded.size() / 2] ^ 0xFF);
    file.write(&flipped, 1);
  }
  auto loaded = LoadLocalCache(path, fp);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status();

  CacheCloud restarted = MakeCloud("writer", cloud.csps);
  ASSERT_TRUE(restarted.client->Recover().ok());
  auto get = restarted.client->Get("c.bin");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->content, content);
  fs::remove(path);
}

}  // namespace
}  // namespace cyrus
