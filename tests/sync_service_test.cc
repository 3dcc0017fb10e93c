// Tests for the synchronization service (§5.4): multi-device folder
// convergence with no client-to-client communication.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/cloud/simulated_csp.h"
#include "src/core/sync_service.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/plan_oracle.h"

namespace cyrus {
namespace {

struct Device {
  std::unique_ptr<CyrusClient> client;
  LocalWorkspace workspace;
  std::unique_ptr<SyncService> service;
};

struct SharedCloud {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;

  SharedCloud() {
    for (int i = 0; i < 4; ++i) {
      csps.push_back(
          std::make_shared<SimulatedCsp>(SimulatedCspOptions{StrCat("csp", i)}));
    }
  }

  std::unique_ptr<Device> MakeDevice(const std::string& id,
                                     SyncOptions options = SyncOptions{},
                                     ChunkerOptions chunker = ChunkerOptions::ForTesting()) {
    auto device = std::make_unique<Device>();
    CyrusConfig config;
    config.key_string = "sync test key";
    config.client_id = id;
    config.t = 2;
    config.epsilon = 1e-4;
    config.chunker = chunker;
    config.cluster_aware = false;
    device->client = std::move(CyrusClient::Create(config)).value();
    for (auto& csp : csps) {
      CspProfile profile;
      profile.download_bytes_per_sec = 2e6;
      profile.upload_bytes_per_sec = 1e6;
      EXPECT_TRUE(device->client->AddCsp(csp, profile, Credentials{"token"}).ok());
    }
    device->service =
        std::make_unique<SyncService>(device->client.get(), &device->workspace, options);
    return device;
  }
};

// --- LocalWorkspace ---

TEST(LocalWorkspaceTest, WriteReadDelete) {
  LocalWorkspace ws;
  ws.WriteFile("a.txt", ToBytes("hello"), 1.0);
  EXPECT_TRUE(ws.Exists("a.txt"));
  auto content = ws.ReadFile("a.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(ToString(*content), "hello");
  EXPECT_EQ(ws.FileNames(), (std::vector<std::string>{"a.txt"}));

  // Never-synced file: delete forgets it entirely.
  ASSERT_TRUE(ws.DeleteFile("a.txt", 2.0).ok());
  EXPECT_FALSE(ws.Exists("a.txt"));
  EXPECT_EQ(ws.ReadFile("a.txt").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ws.DeleteFile("a.txt", 3.0).code(), StatusCode::kNotFound);
}

// --- SyncService basics ---

TEST(SyncServiceTest, UploadsLocalFiles) {
  SharedCloud cloud;
  auto device = cloud.MakeDevice("d1");
  device->workspace.WriteFile("doc.txt", ToBytes("local content"), 1.0);
  auto stats = device->service->RunOnce();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->uploads, 1u);
  // The cloud now has the file.
  auto listing = device->client->List("");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, "doc.txt");
}

// A push records the content id its Put computed (no second hash of the
// file): it names the head version's content, so the pull that follows
// finds the local copy current.
TEST(SyncServiceTest, PushRecordsTheHeadsContentId) {
  SharedCloud cloud;
  auto device = cloud.MakeDevice("d1");
  const Bytes content = ToBytes("pushed content");
  for (int pass = 0; pass < 2; ++pass) {  // the second push is unchanged
    SCOPED_TRACE(StrCat("pass ", pass));
    device->workspace.WriteFile("doc.txt", content, 1.0 + pass);
    auto stats = device->service->RunOnce();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->uploads, pass == 0 ? 1u : 0u);
    EXPECT_EQ(stats->downloads, 0u);
    const std::vector<const FileVersion*> heads =
        device->client->tree().LiveHeads("doc.txt");
    ASSERT_EQ(heads.size(), 1u);
    auto synced = device->workspace.SyncedContentId("doc.txt");
    ASSERT_TRUE(synced.ok()) << synced.status();
    EXPECT_EQ(*synced, heads.front()->content_id);
    EXPECT_EQ(*synced, ReferenceContentId(ChunkerOptions::ForTesting(), content));
  }
}

TEST(SyncServiceTest, IdenticalPutsMergeOnlyUnderTheSameChunkerOptions) {
  // The version id derives from the content id, which hashes the chunk
  // list. Two devices that Put the same bytes onto the same parent write
  // one version when they cut alike, and two sibling heads (a conflict)
  // when their ChunkerOptions differ: clients sharing a namespace must use
  // the same options.
  ChunkerOptions other = ChunkerOptions::ForTesting();
  other.modulus = 2048;
  Rng rng(7);
  Bytes base(20000);
  for (uint8_t& b : base) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Bytes edited = base;
  edited[10000] ^= 0x01;
  for (const bool same_options : {true, false}) {
    SCOPED_TRACE(same_options ? "same options" : "other options");
    SharedCloud cloud;
    auto d1 = cloud.MakeDevice("d1");
    auto d2 = cloud.MakeDevice("d2", SyncOptions{},
                               same_options ? ChunkerOptions::ForTesting() : other);
    d1->client->set_time(1.0);
    ASSERT_TRUE(d1->client->Put("notes", base).ok());
    ASSERT_TRUE(d2->client->SyncMetadata().ok());

    d1->client->set_time(2.0);
    d2->client->set_time(2.0);
    auto put1 = d1->client->Put("notes", edited);
    auto put2 = d2->client->Put("notes", edited);
    ASSERT_TRUE(put1.ok()) << put1.status();
    ASSERT_TRUE(put2.ok()) << put2.status();
    auto conflicts = d1->client->SyncMetadata();
    ASSERT_TRUE(conflicts.ok()) << conflicts.status();
    const std::vector<const FileVersion*> live = d1->client->tree().LiveHeads("notes");
    if (same_options) {
      EXPECT_EQ(put1->version_id, put2->version_id);
      EXPECT_TRUE(conflicts->empty());
      EXPECT_EQ(live.size(), 1u);
      continue;
    }
    EXPECT_NE(put1->content_id, put2->content_id);
    EXPECT_NE(put1->version_id, put2->version_id);
    ASSERT_EQ(conflicts->size(), 1u);
    EXPECT_EQ((*conflicts)[0].type, ConflictType::kDivergedVersions);
    ASSERT_EQ(live.size(), 2u);
    for (const FileVersion* head : live) {
      auto get = d1->client->GetVersion("notes", head->id);
      ASSERT_TRUE(get.ok()) << get.status();
      EXPECT_EQ(get->content, edited);
    }
  }
}

TEST(SyncServiceTest, IdempotentWhenNothingChanges) {
  SharedCloud cloud;
  auto device = cloud.MakeDevice("d1");
  device->workspace.WriteFile("doc.txt", ToBytes("content"), 1.0);
  ASSERT_TRUE(device->service->RunOnce().ok());
  auto second = device->service->RunOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->uploads, 0u);
  EXPECT_EQ(second->downloads, 0u);
}

TEST(SyncServiceTest, PropagatesFilesBetweenDevices) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->workspace.WriteFile("shared.md", ToBytes("from device one"), 1.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());

  auto stats = d2->service->RunOnce();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->downloads, 1u);
  auto content = d2->workspace.ReadFile("shared.md");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(ToString(*content), "from device one");
}

TEST(SyncServiceTest, PropagatesEdits) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->client->set_time(1.0);
  d1->workspace.WriteFile("doc", ToBytes("v1"), 1.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  ASSERT_TRUE(d2->service->RunOnce().ok());

  d1->client->set_time(2.0);
  d1->workspace.WriteFile("doc", ToBytes("v2 edited"), 2.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  auto stats = d2->service->RunOnce();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->downloads, 1u);
  EXPECT_EQ(ToString(*d2->workspace.ReadFile("doc")), "v2 edited");
}

TEST(SyncServiceTest, PropagatesDeletions) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->workspace.WriteFile("temp.txt", ToBytes("short lived"), 1.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  ASSERT_TRUE(d2->service->RunOnce().ok());
  ASSERT_TRUE(d2->workspace.Exists("temp.txt"));

  ASSERT_TRUE(d1->workspace.DeleteFile("temp.txt", 2.0).ok());
  auto push = d1->service->RunOnce();
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(push->deletes_pushed, 1u);

  auto pull = d2->service->RunOnce();
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->deletes_pulled, 1u);
  EXPECT_FALSE(d2->workspace.Exists("temp.txt"));
}

TEST(SyncServiceTest, ConcurrentEditsAutoResolveWithoutDataLoss) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->client->set_time(1.0);
  d1->workspace.WriteFile("plan", ToBytes("base"), 1.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  ASSERT_TRUE(d2->service->RunOnce().ok());

  // Both edit before either syncs.
  d1->client->set_time(2.0);
  d2->client->set_time(2.5);
  d1->workspace.WriteFile("plan", ToBytes("edit from d1"), 2.0);
  d2->workspace.WriteFile("plan", ToBytes("edit from d2"), 2.5);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  auto stats = d2->service->RunOnce();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->conflicts_detected, 1u);
  EXPECT_GE(stats->conflicts_resolved, 1u);

  // After both settle once more, the devices converge: "plan" holds the
  // newest edit and the loser survives under a conflict name.
  ASSERT_TRUE(d1->service->RunOnce().ok());
  ASSERT_TRUE(d2->service->RunOnce().ok());
  EXPECT_EQ(ToString(*d1->workspace.ReadFile("plan")), "edit from d2");
  EXPECT_EQ(ToString(*d2->workspace.ReadFile("plan")), "edit from d2");
  bool rescued = false;
  for (const std::string& name : d1->workspace.FileNames()) {
    if (name != "plan" && StartsWith(name, "plan.conflict-")) {
      rescued = true;
      EXPECT_EQ(ToString(*d1->workspace.ReadFile(name)), "edit from d1");
    }
  }
  EXPECT_TRUE(rescued);
}

TEST(SyncServiceTest, ReportOnlyPolicyLeavesConflictAlone) {
  SharedCloud cloud;
  SyncOptions report_only;
  report_only.conflict_policy = ConflictPolicy::kReportOnly;
  auto d1 = cloud.MakeDevice("d1", report_only);
  auto d2 = cloud.MakeDevice("d2", report_only);
  d1->client->set_time(1.0);
  d1->workspace.WriteFile("plan", ToBytes("base"), 1.0);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  ASSERT_TRUE(d2->service->RunOnce().ok());
  d1->client->set_time(2.0);
  d2->client->set_time(2.5);
  d1->workspace.WriteFile("plan", ToBytes("edit1"), 2.0);
  d2->workspace.WriteFile("plan", ToBytes("edit2"), 2.5);
  ASSERT_TRUE(d1->service->RunOnce().ok());
  auto stats = d2->service->RunOnce();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->conflicts_detected, 1u);
  EXPECT_EQ(stats->conflicts_resolved, 0u);
  // Both heads remain live.
  std::vector<const FileVersion*> live;
  for (const FileVersion* head : d2->client->tree().Heads("plan")) {
    if (!head->deleted) {
      live.push_back(head);
    }
  }
  EXPECT_EQ(live.size(), 2u);
}

TEST(SyncServiceTest, PeriodicSyncUnderEventQueue) {
  SharedCloud cloud;
  SyncOptions options;
  options.interval_seconds = 30.0;
  auto d1 = cloud.MakeDevice("d1", options);
  auto d2 = cloud.MakeDevice("d2", options);

  EventQueue queue;
  d1->service->Start(&queue);
  d2->service->Start(&queue);

  // A file written on d1 at t=10 appears on d2 after both have synced.
  queue.ScheduleAt(10.0, [&] {
    d1->workspace.WriteFile("auto.txt", ToBytes("periodic"), queue.now());
  });
  queue.RunUntil(100.0);
  EXPECT_TRUE(d2->workspace.Exists("auto.txt"));
  EXPECT_GE(d1->service->lifetime_stats().uploads, 1u);
  EXPECT_GE(d2->service->lifetime_stats().downloads, 1u);

  d1->service->Stop();
  d2->service->Stop();
  queue.RunUntil(200.0);  // drains the final scheduled callbacks
  EXPECT_FALSE(d1->service->running());
}

TEST(SyncServiceTest, TrulyConcurrentWritersProduceSiblingHeads) {
  // Two devices Put the same name at the same wall moment from two
  // threads, each through its own pipelined engine against the *shared*
  // simulated providers. Neither sees the other's metadata before
  // publishing, so after a sync both version trees must hold two live
  // sibling heads (paper Figure 8's same-name case) and no bytes of
  // either write may be lost.
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->client->set_time(1.0);
  d2->client->set_time(1.0);

  const Bytes content1 = ToBytes(std::string(6000, 'a') + "written by d1");
  const Bytes content2 = ToBytes(std::string(6000, 'b') + "written by d2");
  Result<PutResult> put1 = InternalError("not run");
  Result<PutResult> put2 = InternalError("not run");
  {
    // Synchronize the two Puts as closely as the scheduler allows.
    std::atomic<int> ready{0};
    auto racer = [&ready](CyrusClient* client, const Bytes& content,
                          Result<PutResult>* out) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      *out = client->Put("raced.doc", content);
    };
    std::thread t1(racer, d1->client.get(), std::cref(content1), &put1);
    std::thread t2(racer, d2->client.get(), std::cref(content2), &put2);
    t1.join();
    t2.join();
  }
  ASSERT_TRUE(put1.ok()) << put1.status();
  ASSERT_TRUE(put2.ok()) << put2.status();

  // Each device pulls the other's metadata; both writes are root versions
  // of the same name, so the tree records them as sibling live heads.
  auto conflicts1 = d1->client->SyncMetadata();
  ASSERT_TRUE(conflicts1.ok()) << conflicts1.status();
  ASSERT_EQ(conflicts1->size(), 1u);
  EXPECT_EQ((*conflicts1)[0].type, ConflictType::kSameName);
  std::vector<const FileVersion*> live;
  for (const FileVersion* head : d1->client->tree().Heads("raced.doc")) {
    if (!head->deleted) {
      live.push_back(head);
    }
  }
  ASSERT_EQ(live.size(), 2u);
  EXPECT_TRUE(IsNullDigest(live[0]->prev_id));
  EXPECT_TRUE(IsNullDigest(live[1]->prev_id));
  EXPECT_NE(live[0]->id, live[1]->id);

  // Both writes remain retrievable by version id: nothing was clobbered.
  for (const FileVersion* head : live) {
    auto get = d1->client->GetVersion("raced.doc", head->id);
    ASSERT_TRUE(get.ok()) << get.status();
    EXPECT_TRUE(get->content == content1 || get->content == content2);
  }
}

TEST(SyncServiceTest, ConcurrentWritersAutoResolveKeepsBothContents) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  auto d2 = cloud.MakeDevice("d2");
  d1->client->set_time(1.0);
  d2->client->set_time(2.0);  // d2's write is newer; it must win the name

  Result<PutResult> put1 = InternalError("not run");
  Result<PutResult> put2 = InternalError("not run");
  {
    std::atomic<int> ready{0};
    auto racer = [&ready](CyrusClient* client, const char* text,
                          Result<PutResult>* out) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      *out = client->Put("notes.txt", ToBytes(text));
    };
    std::thread t1(racer, d1->client.get(), "older write", &put1);
    std::thread t2(racer, d2->client.get(), "newer write", &put2);
    t1.join();
    t2.join();
  }
  ASSERT_TRUE(put1.ok()) << put1.status();
  ASSERT_TRUE(put2.ok()) << put2.status();

  // The sync service on d1 detects the sibling heads and auto-resolves:
  // newest head keeps the name, the loser is renamed, nothing is lost.
  auto stats = d1->service->RunOnce();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->conflicts_detected, 1u);
  EXPECT_GE(stats->conflicts_resolved, 1u);
  ASSERT_TRUE(d1->service->RunOnce().ok());  // settle the rename locally

  EXPECT_EQ(ToString(*d1->workspace.ReadFile("notes.txt")), "newer write");
  bool rescued = false;
  for (const std::string& name : d1->workspace.FileNames()) {
    if (StartsWith(name, "notes.txt.conflict-")) {
      rescued = true;
      EXPECT_EQ(ToString(*d1->workspace.ReadFile(name)), "older write");
    }
  }
  EXPECT_TRUE(rescued);

  // Under kReportOnly the same race is surfaced but left untouched
  // (covered for sequential writers above; here we just confirm the raced
  // heads are visible to a report-only reader too).
  SyncOptions report_only;
  report_only.conflict_policy = ConflictPolicy::kReportOnly;
  auto d3 = cloud.MakeDevice("d3", report_only);
  auto observer = d3->service->RunOnce();
  ASSERT_TRUE(observer.ok()) << observer.status();
  EXPECT_EQ(observer->conflicts_resolved, 0u);
}

TEST(SyncServiceTest, ToleratesCspOutageDuringSync) {
  SharedCloud cloud;
  auto d1 = cloud.MakeDevice("d1");
  d1->workspace.WriteFile("doc", ToBytes("content"), 1.0);
  cloud.csps[0]->set_available(false);
  auto stats = d1->service->RunOnce();
  ASSERT_TRUE(stats.ok()) << stats.status();  // n > t absorbs one outage
  EXPECT_EQ(stats->uploads, 1u);
  cloud.csps[0]->set_available(true);
  auto d2 = cloud.MakeDevice("d2");
  ASSERT_TRUE(d2->service->RunOnce().ok());
  EXPECT_TRUE(d2->workspace.Exists("doc"));
}

}  // namespace
}  // namespace cyrus
