#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/gateway/shard_map.h"
#include "src/meta/chunk_table.h"
#include "src/meta/metadata.h"
#include "src/meta/serialize.h"
#include "src/meta/version_tree.h"
#include "src/util/rng.h"

namespace cyrus {
namespace {

Sha1Digest Id(std::string_view tag) { return Sha1::Hash(tag); }

FileVersion MakeVersion(std::string_view name, std::string_view content_tag,
                        const Sha1Digest& prev = Sha1Digest{}) {
  FileVersion v;
  v.id = Id(content_tag);
  v.prev_id = prev;
  v.client_id = "tester";
  v.file_name = std::string(name);
  v.modified_time = 1.0;
  v.size = 100;
  ChunkRecord chunk;
  chunk.id = Id(std::string(content_tag) + "-chunk");
  chunk.offset = 0;
  chunk.size = 100;
  chunk.t = 2;
  chunk.n = 3;
  v.chunks.push_back(chunk);
  for (uint32_t i = 0; i < 3; ++i) {
    v.shares.push_back(ShareLocation{chunk.id, i, static_cast<int32_t>(i)});
  }
  return v;
}

// Serializes `v` in a legacy envelope format (1 = pre-dedup, 2 = dedup but
// pre-digest), byte-identical to what those clients wrote, so the decoder's
// backward-compatibility paths are pinned against the historical layouts.
Bytes SerializeAtVersion(const FileVersion& v, uint32_t format_version) {
  BinaryWriter w;
  w.WriteU32(0x43595253);  // "CYRS"
  w.WriteU32(format_version);
  w.WriteDigest(v.id);
  w.WriteDigest(v.content_id);
  w.WriteDigest(v.prev_id);
  w.WriteString(v.client_id);
  w.WriteString(v.file_name);
  w.WriteU8(v.deleted ? 1 : 0);
  w.WriteDouble(v.modified_time);
  w.WriteU64(v.size);
  w.WriteU32(static_cast<uint32_t>(v.chunks.size()));
  for (const ChunkRecord& c : v.chunks) {
    w.WriteDigest(c.id);
    w.WriteU64(c.offset);
    w.WriteU64(c.size);
    w.WriteU32(c.t);
    w.WriteU32(c.n);
    if (format_version >= 2) {
      w.WriteU8(c.dedup ? 1 : 0);
      w.WriteBytes(c.wrapped_key);
    }
    if (format_version >= 3) {
      w.WriteU32(static_cast<uint32_t>(c.share_digests.size()));
      for (const ShareDigest& sd : c.share_digests) {
        w.WriteU32(sd.share_index);
        w.WriteDigest(sd.digest);
      }
    }
  }
  w.WriteU32(static_cast<uint32_t>(v.shares.size()));
  for (const ShareLocation& s : v.shares) {
    w.WriteDigest(s.chunk_id);
    w.WriteU32(s.share_index);
    w.WriteI32(s.csp);
  }
  w.WriteU32(static_cast<uint32_t>(v.csp_directory.size()));
  for (const std::string& name : v.csp_directory) {
    w.WriteString(name);
  }
  return w.TakeData();
}

// --- BinaryWriter / BinaryReader ---

TEST(SerializeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-42);
  w.WriteDouble(3.14159);
  w.WriteString("cyrus");
  w.WriteBytes(Bytes{1, 2, 3});
  w.WriteDigest(Id("x"));

  BinaryReader r(w.data());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI32(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "cyrus");
  EXPECT_EQ(*r.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(*r.ReadDigest(), Id("x"));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedReadFails) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(ByteSpan(w.data().data(), 2));
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, StringLengthBeyondBufferFails) {
  BinaryWriter w;
  w.WriteU32(1000);  // claims 1000 bytes follow
  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kDataLoss);
}

// --- FileVersion ---

TEST(FileVersionTest, SerializeRoundTrip) {
  const FileVersion v = MakeVersion("docs/paper.pdf", "v1");
  auto back = FileVersion::Deserialize(v.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, v.id);
  EXPECT_EQ(back->file_name, v.file_name);
  EXPECT_EQ(back->client_id, v.client_id);
  EXPECT_EQ(back->size, v.size);
  ASSERT_EQ(back->chunks.size(), 1u);
  EXPECT_EQ(back->chunks[0].id, v.chunks[0].id);
  EXPECT_EQ(back->chunks[0].t, 2u);
  ASSERT_EQ(back->shares.size(), 3u);
  EXPECT_EQ(back->shares[2].csp, 2);
}

TEST(FileVersionTest, DeserializeRejectsGarbage) {
  Bytes garbage = {1, 2, 3, 4, 5};
  EXPECT_EQ(FileVersion::Deserialize(garbage).status().code(), StatusCode::kDataLoss);
}

TEST(FileVersionTest, DeserializeRejectsTrailingBytes) {
  FileVersion v = MakeVersion("f", "v1");
  Bytes data = v.Serialize();
  data.push_back(0);
  EXPECT_EQ(FileVersion::Deserialize(data).status().code(), StatusCode::kDataLoss);
}

// v1 (pre-dedup) and v2 (pre-digest) envelopes written by older clients
// still parse; the absent fields come back defaulted, and a v1 -> v2 -> v3
// upgrade of the same logical record survives each hop intact.
TEST(FileVersionTest, LegacyEnvelopeVersionsRoundTrip) {
  FileVersion v = MakeVersion("legacy.bin", "legacy");
  v.chunks[0].dedup = true;
  v.chunks[0].wrapped_key = Bytes{9, 9, 9};
  v.chunks[0].SetShareDigest(0, Id("share-0"));
  v.chunks[0].SetShareDigest(1, Id("share-1"));

  // v1: no dedup pair, no digests.
  auto v1 = FileVersion::Deserialize(SerializeAtVersion(v, 1));
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1->id, v.id);
  EXPECT_FALSE(v1->chunks[0].dedup);
  EXPECT_TRUE(v1->chunks[0].wrapped_key.empty());
  EXPECT_TRUE(v1->chunks[0].share_digests.empty());

  // v2: dedup pair survives, digests are still absent.
  auto v2 = FileVersion::Deserialize(SerializeAtVersion(v, 2));
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_TRUE(v2->chunks[0].dedup);
  EXPECT_EQ(v2->chunks[0].wrapped_key, (Bytes{9, 9, 9}));
  EXPECT_TRUE(v2->chunks[0].share_digests.empty());

  // v3 (the current writer): the digest set rides along and FindShareDigest
  // resolves by index.
  auto v3 = FileVersion::Deserialize(v.Serialize());
  ASSERT_TRUE(v3.ok()) << v3.status();
  ASSERT_EQ(v3->chunks[0].share_digests.size(), 2u);
  const Sha1Digest* d1 = v3->chunks[0].FindShareDigest(1);
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(*d1, Id("share-1"));
  EXPECT_EQ(v3->chunks[0].FindShareDigest(7), nullptr);

  // The upgrade path a gather takes: re-serializing the v2 parse after
  // SetShareDigest produces a v3 object equal to the original.
  FileVersion upgraded = *v2;
  upgraded.chunks[0].SetShareDigest(0, Id("share-0"));
  upgraded.chunks[0].SetShareDigest(1, Id("share-1"));
  EXPECT_EQ(upgraded.Serialize(), v.Serialize());
}

TEST(FileVersionTest, SetShareDigestOverwritesInPlace) {
  ChunkRecord c;
  c.SetShareDigest(3, Id("first"));
  c.SetShareDigest(3, Id("second"));
  ASSERT_EQ(c.share_digests.size(), 1u);
  EXPECT_EQ(*c.FindShareDigest(3), Id("second"));
}

// A torn or truncated envelope - interrupted upload, partial object - must
// fail with a typed kDataLoss at every cut point, including cuts that land
// inside the v3 digest block, and never parse into a half-record.
TEST(FileVersionTest, TornEnvelopeFailsCleanAtEveryCut) {
  FileVersion v = MakeVersion("torn.bin", "torn");
  v.chunks[0].SetShareDigest(0, Id("d0"));
  v.chunks[0].SetShareDigest(1, Id("d1"));
  v.chunks[0].SetShareDigest(2, Id("d2"));
  const Bytes full = v.Serialize();
  ASSERT_TRUE(FileVersion::Deserialize(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto torn = FileVersion::Deserialize(ByteSpan(full.data(), cut));
    ASSERT_FALSE(torn.ok()) << "cut at " << cut << " parsed";
    EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
}

// A digest-count field torn off from its payload (the count says 3, the
// bytes end after 1) is the nastiest truncation: the reader must not trust
// the count and over-read.
TEST(FileVersionTest, DigestCountBeyondBufferFails) {
  FileVersion v = MakeVersion("lying-count.bin", "lie");
  v.chunks[0].SetShareDigest(0, Id("d0"));
  Bytes data = v.Serialize();
  // Locate the digest-count u32 (value 1) right before the first digest
  // entry and inflate it; the object now claims more digests than it holds.
  const Bytes entry_prefix = [&] {
    BinaryWriter w;
    w.WriteU32(1);  // count
    w.WriteU32(0);  // share_index
    return w.TakeData();
  }();
  auto it = std::search(data.begin(), data.end(), entry_prefix.begin(),
                        entry_prefix.end());
  ASSERT_NE(it, data.end());
  *it = 0xFF;  // count 1 -> huge little-endian count
  auto parsed = FileVersion::Deserialize(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

// Format versions from the future are refused outright rather than
// misparsed field-by-field.
TEST(FileVersionTest, FutureFormatVersionRejected) {
  const FileVersion v = MakeVersion("future.bin", "future");
  const Bytes data = SerializeAtVersion(v, 4);
  auto parsed = FileVersion::Deserialize(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(FileVersionTest, SharesOfChunkSortedByIndex) {
  FileVersion v = MakeVersion("f", "v1");
  std::swap(v.shares[0], v.shares[2]);
  const auto shares = v.SharesOfChunk(v.chunks[0].id);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0].share_index, 0u);
  EXPECT_EQ(shares[2].share_index, 2u);
}

TEST(FileVersionTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MakeVersion("f", "v1").Validate().ok());
}

TEST(FileVersionTest, ValidateRejectsBadTn) {
  FileVersion v = MakeVersion("f", "v1");
  v.chunks[0].t = 4;  // t > n
  EXPECT_FALSE(v.Validate().ok());
}

TEST(FileVersionTest, ValidateRejectsGappedOffsets) {
  FileVersion v = MakeVersion("f", "v1");
  v.chunks[0].offset = 10;
  EXPECT_FALSE(v.Validate().ok());
}

TEST(FileVersionTest, ValidateRejectsMissingShares) {
  FileVersion v = MakeVersion("f", "v1");
  v.shares.resize(1);  // fewer than t = 2 locations
  EXPECT_FALSE(v.Validate().ok());
}

TEST(FileVersionTest, ValidateRejectsSizeMismatch) {
  FileVersion v = MakeVersion("f", "v1");
  v.size = 999;
  EXPECT_FALSE(v.Validate().ok());
}

// --- VersionTree ---

TEST(VersionTreeTest, InsertAndFind) {
  VersionTree tree;
  const FileVersion v = MakeVersion("a.txt", "v1");
  ASSERT_TRUE(tree.Insert(v).ok());
  EXPECT_TRUE(tree.Contains(v.id));
  EXPECT_EQ(tree.size(), 1u);
  ASSERT_NE(tree.Find(v.id), nullptr);
  EXPECT_EQ(tree.Find(v.id)->file_name, "a.txt");
}

TEST(VersionTreeTest, DuplicateInsertIsIdempotent) {
  VersionTree tree;
  const FileVersion v = MakeVersion("a.txt", "v1");
  ASSERT_TRUE(tree.Insert(v).ok());
  EXPECT_TRUE(tree.Insert(v).ok());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(VersionTreeTest, MismatchedDuplicateRejected) {
  VersionTree tree;
  FileVersion v = MakeVersion("a.txt", "v1");
  ASSERT_TRUE(tree.Insert(v).ok());
  v.client_id = "someone-else";
  EXPECT_EQ(tree.Insert(v).code(), StatusCode::kAlreadyExists);
}

TEST(VersionTreeTest, NewestLiveHeadFollowsEditChain) {
  VersionTree tree;
  const FileVersion v1 = MakeVersion("a.txt", "v1");
  const FileVersion v2 = MakeVersion("a.txt", "v2", v1.id);
  ASSERT_TRUE(tree.Insert(v1).ok());
  ASSERT_TRUE(tree.Insert(v2).ok());
  const auto live = tree.LiveHeads("a.txt");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(VersionTree::Newest(live)->id, v2.id);
  EXPECT_FALSE(VersionTree::LiveHeadConflict("a.txt", live).has_value());
}

TEST(VersionTreeTest, NewestBreaksModifiedTimeTiesByLargerId) {
  VersionTree tree;
  FileVersion a = MakeVersion("a.txt", "device-1");
  FileVersion b = MakeVersion("a.txt", "device-2");
  a.modified_time = b.modified_time = 7.0;
  ASSERT_TRUE(tree.Insert(a).ok());
  ASSERT_TRUE(tree.Insert(b).ok());
  const Sha1Digest larger = std::max(a.id, b.id);
  EXPECT_EQ(VersionTree::Newest(tree.LiveHeads("a.txt"))->id, larger);
  // Insertion order does not matter.
  VersionTree reversed;
  ASSERT_TRUE(reversed.Insert(b).ok());
  ASSERT_TRUE(reversed.Insert(a).ok());
  EXPECT_EQ(VersionTree::Newest(reversed.LiveHeads("a.txt"))->id, larger);
  // A later modified_time wins regardless of id.
  FileVersion later = MakeVersion("b.txt", "later");
  FileVersion earlier = MakeVersion("b.txt", "earlier");
  later.modified_time = 8.0;
  earlier.modified_time = 1.0;
  ASSERT_TRUE(tree.Insert(later).ok());
  ASSERT_TRUE(tree.Insert(earlier).ok());
  EXPECT_EQ(VersionTree::Newest(tree.LiveHeads("b.txt"))->id, later.id);
  EXPECT_EQ(VersionTree::Newest({}), nullptr);
}

TEST(VersionTreeTest, HistoryWalksBack) {
  VersionTree tree;
  const FileVersion v1 = MakeVersion("a.txt", "v1");
  const FileVersion v2 = MakeVersion("a.txt", "v2", v1.id);
  const FileVersion v3 = MakeVersion("a.txt", "v3", v2.id);
  for (const auto& v : {v1, v2, v3}) {
    ASSERT_TRUE(tree.Insert(v).ok());
  }
  auto history = tree.History(v3.id);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0]->id, v3.id);
  EXPECT_EQ((*history)[2]->id, v1.id);
}

TEST(VersionTreeTest, SameNameConflictDetected) {
  // Figure 8 left: two clients create "a.txt" independently.
  VersionTree tree;
  ASSERT_TRUE(tree.Insert(MakeVersion("a.txt", "client1-content")).ok());
  ASSERT_TRUE(tree.Insert(MakeVersion("a.txt", "client2-content")).ok());
  const auto live = tree.LiveHeads("a.txt");
  ASSERT_EQ(live.size(), 2u);
  const auto conflict = VersionTree::LiveHeadConflict("a.txt", live);
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->type, ConflictType::kSameName);
  EXPECT_EQ(conflict->file_name, "a.txt");
  EXPECT_EQ(conflict->versions.size(), 2u);
}

TEST(VersionTreeTest, DivergedVersionsConflictDetected) {
  // Figure 8 right: two clients edit the same parent.
  VersionTree tree;
  const FileVersion base = MakeVersion("a.txt", "base");
  const FileVersion edit1 = MakeVersion("a.txt", "edit1", base.id);
  const FileVersion edit2 = MakeVersion("a.txt", "edit2", base.id);
  for (const auto& v : {base, edit1, edit2}) {
    ASSERT_TRUE(tree.Insert(v).ok());
  }
  const auto conflict = VersionTree::LiveHeadConflict("a.txt", tree.LiveHeads("a.txt"));
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->type, ConflictType::kDivergedVersions);
  EXPECT_EQ(conflict->versions.size(), 2u);
}

TEST(VersionTreeTest, DivergedHeadsConflictAtAnyDepth) {
  // The divergence at `base` surfaces even after one branch moved on: the
  // live heads are edit1 and edit3.
  VersionTree tree;
  const FileVersion base = MakeVersion("a.txt", "base");
  const FileVersion edit1 = MakeVersion("a.txt", "edit1", base.id);
  const FileVersion edit2 = MakeVersion("a.txt", "edit2", base.id);
  const FileVersion edit3 = MakeVersion("a.txt", "edit3", edit2.id);
  for (const auto& v : {base, edit1, edit2, edit3}) {
    ASSERT_TRUE(tree.Insert(v).ok());
  }
  const auto conflict = VersionTree::LiveHeadConflict("a.txt", tree.LiveHeads("a.txt"));
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->type, ConflictType::kDivergedVersions);
  EXPECT_EQ(std::set<Sha1Digest>(conflict->versions.begin(), conflict->versions.end()),
            (std::set<Sha1Digest>{edit1.id, edit3.id}));
}

TEST(VersionTreeTest, ResolvedConflictIsNoLongerReported) {
  // Resolving renames the loser: a child under another name ends the
  // loser's life as a head of "a.txt", so the name has one live head.
  VersionTree tree;
  const FileVersion base = MakeVersion("a.txt", "base");
  const FileVersion edit1 = MakeVersion("a.txt", "edit1", base.id);
  const FileVersion edit2 = MakeVersion("a.txt", "edit2", base.id);
  const FileVersion rename = MakeVersion("a.txt.conflict", "edit1-renamed", edit1.id);
  for (const auto& v : {base, edit1, edit2, rename}) {
    ASSERT_TRUE(tree.Insert(v).ok());
  }
  const auto live = tree.LiveHeads("a.txt");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.front()->id, edit2.id);
  EXPECT_FALSE(VersionTree::LiveHeadConflict("a.txt", live).has_value());
}

TEST(VersionTreeTest, NoConflictOnLinearHistory) {
  VersionTree tree;
  const FileVersion v1 = MakeVersion("a.txt", "v1");
  const FileVersion v2 = MakeVersion("a.txt", "v2", v1.id);
  ASSERT_TRUE(tree.Insert(v1).ok());
  ASSERT_TRUE(tree.Insert(v2).ok());
  EXPECT_FALSE(
      VersionTree::LiveHeadConflict("a.txt", tree.LiveHeads("a.txt")).has_value());
}

TEST(VersionTreeTest, DeletionMarkerHidesFile) {
  VersionTree tree;
  const FileVersion v1 = MakeVersion("a.txt", "v1");
  FileVersion marker = MakeVersion("a.txt", "deleted", v1.id);
  marker.deleted = true;
  marker.chunks.clear();
  marker.shares.clear();
  marker.size = 0;
  ASSERT_TRUE(tree.Insert(v1).ok());
  ASSERT_TRUE(tree.Insert(marker).ok());
  EXPECT_TRUE(tree.LiveHeads("a.txt").empty());
  EXPECT_EQ(tree.Heads("a.txt").size(), 1u);
  EXPECT_TRUE(tree.FileNames().empty());
  EXPECT_EQ(tree.FileNames(/*include_deleted=*/true).size(), 1u);
  // Undelete path: history from the marker still reaches v1.
  auto history = tree.History(marker.id);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ((*history)[1]->id, v1.id);
}

TEST(VersionTreeTest, FileNamesSortedAndLive) {
  VersionTree tree;
  ASSERT_TRUE(tree.Insert(MakeVersion("b.txt", "b1")).ok());
  ASSERT_TRUE(tree.Insert(MakeVersion("a.txt", "a1")).ok());
  EXPECT_EQ(tree.FileNames(), (std::vector<std::string>{"a.txt", "b.txt"}));
}

// --- ChunkTable ---

TEST(ChunkTableTest, InsertLookupRefcount) {
  ChunkTable table;
  const Sha1Digest id = Id("chunk1");
  ChunkEntry entry;
  entry.size = 1000;
  entry.t = 2;
  entry.n = 3;
  entry.shares = {{0, 0}, {1, 1}, {2, 2}};
  ASSERT_TRUE(table.Insert(id, entry).ok());
  EXPECT_TRUE(table.Contains(id));
  EXPECT_EQ(table.Find(id)->refcount, 1u);
  ASSERT_TRUE(table.AddRef(id).ok());
  EXPECT_EQ(table.Find(id)->refcount, 2u);
  ASSERT_TRUE(table.Release(id).ok());
  ASSERT_TRUE(table.Release(id).ok());
  EXPECT_EQ(table.Find(id)->refcount, 0u);
  EXPECT_EQ(table.Release(id).code(), StatusCode::kFailedPrecondition);
}

TEST(ChunkTableTest, DuplicateInsertRejected) {
  ChunkTable table;
  ASSERT_TRUE(table.Insert(Id("c"), ChunkEntry{}).ok());
  EXPECT_EQ(table.Insert(Id("c"), ChunkEntry{}).code(), StatusCode::kAlreadyExists);
}

TEST(ChunkTableTest, MoveShare) {
  ChunkTable table;
  ChunkEntry entry;
  entry.shares = {{0, 5}, {1, 6}};
  ASSERT_TRUE(table.Insert(Id("c"), entry).ok());
  ASSERT_TRUE(table.MoveShare(Id("c"), 5, 0, 9, 7, Sha1Digest{}).ok());
  EXPECT_EQ(table.Find(Id("c"))->shares[0].csp, 9);
  EXPECT_EQ(table.Find(Id("c"))->shares[0].share_index, 7u);
  EXPECT_EQ(table.MoveShare(Id("c"), 5, 0, 9, 7, Sha1Digest{}).code(),
            StatusCode::kNotFound);
}

TEST(ChunkTableTest, AddShareRejectsDuplicateIndex) {
  ChunkTable table;
  ChunkEntry entry;
  entry.shares = {{0, 5}};
  ASSERT_TRUE(table.Insert(Id("c"), entry).ok());
  ASSERT_TRUE(table.AddShare(Id("c"), ChunkShare{1, 6}).ok());
  EXPECT_EQ(table.AddShare(Id("c"), ChunkShare{1, 7}).code(),
            StatusCode::kAlreadyExists);
}

TEST(ChunkTableTest, RemoveShare) {
  ChunkTable table;
  ChunkEntry entry;
  entry.shares = {{0, 5}, {1, 6}};
  ASSERT_TRUE(table.Insert(Id("c"), entry).ok());
  ASSERT_TRUE(table.RemoveShare(Id("c"), 5, 0).ok());
  ASSERT_EQ(table.Find(Id("c"))->shares.size(), 1u);
  EXPECT_EQ(table.Find(Id("c"))->shares[0].csp, 6);
  // Gone already; and the other share only matches on both csp and index.
  EXPECT_EQ(table.RemoveShare(Id("c"), 5, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.RemoveShare(Id("c"), 6, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.RemoveShare(Id("missing"), 6, 1).code(), StatusCode::kNotFound);
}

TEST(ChunkTableTest, AllChunkIds) {
  ChunkTable table;
  EXPECT_TRUE(table.AllChunkIds().empty());
  ASSERT_TRUE(table.Insert(Id("a"), ChunkEntry{}).ok());
  ASSERT_TRUE(table.Insert(Id("b"), ChunkEntry{}).ok());
  std::vector<Sha1Digest> ids = table.AllChunkIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_TRUE((ids[0] == Id("a") && ids[1] == Id("b")) ||
              (ids[0] == Id("b") && ids[1] == Id("a")));
}

TEST(ChunkTableTest, ChunksOnCsp) {
  ChunkTable table;
  ChunkEntry on_zero;
  on_zero.shares = {{0, 0}, {1, 1}};
  ChunkEntry off_zero;
  off_zero.shares = {{0, 1}, {1, 2}};
  ASSERT_TRUE(table.Insert(Id("a"), on_zero).ok());
  ASSERT_TRUE(table.Insert(Id("b"), off_zero).ok());
  EXPECT_EQ(table.ChunksOnCsp(0).size(), 1u);
  EXPECT_EQ(table.ChunksOnCsp(1).size(), 2u);
  EXPECT_TRUE(table.ChunksOnCsp(7).empty());
}

TEST(ChunkTableTest, SerializeRoundTrip) {
  ChunkTable table;
  ChunkEntry entry;
  entry.size = 4096;
  entry.t = 3;
  entry.n = 5;
  entry.shares = {{0, 1}, {2, 3}};
  ASSERT_TRUE(table.Insert(Id("c1"), entry).ok());
  ASSERT_TRUE(table.AddRef(Id("c1")).ok());
  ASSERT_TRUE(table.Insert(Id("c2"), ChunkEntry{}).ok());

  auto back = ChunkTable::Deserialize(table.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  const ChunkEntry* e = back->Find(Id("c1"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->size, 4096u);
  EXPECT_EQ(e->refcount, 2u);
  ASSERT_EQ(e->shares.size(), 2u);
  EXPECT_EQ(e->shares[1].csp, 3);
}

TEST(ChunkTableTest, DedupFieldsRoundTrip) {
  ChunkTable table;
  ChunkEntry entry;
  entry.size = 4096;
  entry.logical_size = 8192;  // compressed-at-rest style divergence
  entry.t = 3;
  entry.n = 5;
  entry.dedup = true;
  entry.wrapped_key = Bytes{0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(table.Insert(Id("cd"), entry).ok());
  // logical_size defaults to size when the writer leaves it unset.
  ChunkEntry plain;
  plain.size = 512;
  plain.t = 2;
  plain.n = 3;
  ASSERT_TRUE(table.Insert(Id("cp"), plain).ok());

  auto back = ChunkTable::Deserialize(table.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  const ChunkEntry* d = back->Find(Id("cd"));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->logical_size, 8192u);
  EXPECT_TRUE(d->dedup);
  EXPECT_EQ(d->wrapped_key, (Bytes{0xde, 0xad, 0xbe, 0xef}));
  const ChunkEntry* p = back->Find(Id("cp"));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->logical_size, 512u);
  EXPECT_FALSE(p->dedup);
  EXPECT_TRUE(p->wrapped_key.empty());
}

TEST(FileVersionTest, DedupChunkRecordRoundTrip) {
  FileVersion v = MakeVersion("dedup.bin", "dedup-content");
  v.chunks[0].dedup = true;
  v.chunks[0].wrapped_key = Bytes{1, 2, 3, 4, 5};
  auto back = FileVersion::Deserialize(v.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->chunks.size(), 1u);
  EXPECT_TRUE(back->chunks[0].dedup);
  EXPECT_EQ(back->chunks[0].wrapped_key, (Bytes{1, 2, 3, 4, 5}));
}

// Per-share digests in the chunk table: SetShareDigest records, MoveShare
// carries (or clears) the digest, and both survive a serialize round trip.
TEST(ChunkTableTest, ShareDigestsRoundTrip) {
  ChunkTable table;
  ChunkEntry entry;
  entry.size = 2048;
  entry.t = 2;
  entry.n = 3;
  entry.shares = {{0, 5}, {1, 6}, {2, 7}};
  ASSERT_TRUE(table.Insert(Id("cs"), entry).ok());
  ASSERT_TRUE(table.SetShareDigest(Id("cs"), 0, Id("sd-0")).ok());
  ASSERT_TRUE(table.SetShareDigest(Id("cs"), 2, Id("sd-2")).ok());
  EXPECT_EQ(table.SetShareDigest(Id("cs"), 9, Id("sd-9")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table.SetShareDigest(Id("nope"), 0, Id("x")).code(),
            StatusCode::kNotFound);

  auto back = ChunkTable::Deserialize(table.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  const ChunkEntry* e = back->Find(Id("cs"));
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->shares.size(), 3u);
  EXPECT_TRUE(e->shares[0].has_digest());
  EXPECT_EQ(e->shares[0].digest, Id("sd-0"));
  EXPECT_FALSE(e->shares[1].has_digest());  // all-zero sentinel = unknown
  EXPECT_TRUE(e->shares[2].has_digest());

  // MoveShare to a new index with the unknown digest clears the stale one
  // (index i's bytes differ from index j's); with a digest, it adopts it.
  ASSERT_TRUE(back->MoveShare(Id("cs"), 5, 0, 8, 3, Sha1Digest{}).ok());
  EXPECT_FALSE(back->Find(Id("cs"))->shares[0].has_digest());
  ASSERT_TRUE(back->MoveShare(Id("cs"), 7, 2, 9, 4, Id("sd-4")).ok());
  const ChunkShare& moved = back->Find(Id("cs"))->shares[2];
  EXPECT_EQ(moved.share_index, 4u);
  EXPECT_TRUE(moved.has_digest());
  EXPECT_EQ(moved.digest, Id("sd-4"));
}

TEST(ChunkTableTest, TotalUniqueBytes) {
  ChunkTable table;
  ChunkEntry a;
  a.size = 100;
  ChunkEntry b;
  b.size = 250;
  ASSERT_TRUE(table.Insert(Id("a"), a).ok());
  ASSERT_TRUE(table.Insert(Id("b"), b).ok());
  EXPECT_EQ(table.TotalUniqueBytes(), 350u);
}


// --- shard split/merge bookkeeping (gateway metadata tier) ---------------

TEST(ShardMapTest, RoutesAreDeterministicAndCoverAllShards) {
  ShardMap map;
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(map.AddShard().ok());
  }
  std::set<int> used;
  for (int i = 0; i < 64; ++i) {
    const std::string path = "t/alice/file-" + std::to_string(i);
    auto first = map.ShardFor(path);
    ASSERT_TRUE(first.ok());
    auto second = map.ShardFor(path);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value());
    used.insert(first.value());
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardMapTest, SplitStealsOnlyFromVictim) {
  ShardMap map;
  ASSERT_TRUE(map.AddShard().ok());
  ASSERT_TRUE(map.AddShard().ok());
  std::map<std::string, int> before;
  for (int i = 0; i < 200; ++i) {
    const std::string path = "p" + std::to_string(i);
    before[path] = map.ShardFor(path).value();
  }
  auto split = map.SplitShard(1);
  ASSERT_TRUE(split.ok()) << split.status();
  const int new_shard = split.value();
  int moved = 0;
  for (const auto& [path, old_shard] : before) {
    const int now = map.ShardFor(path).value();
    if (old_shard == 0) {
      EXPECT_EQ(now, 0) << path;  // bystander keyspace untouched
    } else if (now != old_shard) {
      EXPECT_EQ(now, new_shard) << path;  // moves only victim -> new
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardMapTest, MergeHandsKeyspaceToSuccessors) {
  ShardMap map;
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(map.AddShard().ok());
  }
  std::map<std::string, int> before;
  for (int i = 0; i < 120; ++i) {
    const std::string path = "m" + std::to_string(i);
    before[path] = map.ShardFor(path).value();
  }
  ASSERT_TRUE(map.MergeShard(1).ok());
  EXPECT_EQ(map.num_shards(), 2u);
  for (const auto& [path, old_shard] : before) {
    const int now = map.ShardFor(path).value();
    if (old_shard != 1) {
      EXPECT_EQ(now, old_shard) << path;  // unaffected keyspace stays put
    } else {
      EXPECT_NE(now, 1) << path;
    }
  }
  // The last shard is irremovable.
  ASSERT_TRUE(map.MergeShard(0).ok());
  EXPECT_EQ(map.MergeShard(2).code(), StatusCode::kFailedPrecondition);
}

TEST(ShardMapTest, RouteReportsLazyMigrationExactlyOnce) {
  ShardMap map;
  ASSERT_TRUE(map.AddShard().ok());
  ASSERT_TRUE(map.AddShard().ok());
  // Establish residency for a batch of paths.
  std::vector<std::string> paths;
  for (int i = 0; i < 100; ++i) {
    paths.push_back("lazy-" + std::to_string(i));
    ASSERT_TRUE(map.Route(paths.back()).ok());
  }
  auto split = map.SplitShard(0);
  ASSERT_TRUE(split.ok()) << split.status();
  int migrations = 0;
  for (const std::string& path : paths) {
    auto route = map.Route(path);
    ASSERT_TRUE(route.ok());
    if (route.value().migrated) {
      EXPECT_EQ(route.value().moved_from, 0);
      EXPECT_EQ(route.value().shard, split.value());
      ++migrations;
    }
  }
  EXPECT_GT(migrations, 0);
  // Residency updated: a second pass reports nothing to move.
  for (const std::string& path : paths) {
    EXPECT_FALSE(map.Route(path).value().migrated);
  }
}

TEST(ShardMapTest, SerializeRoundTripsTopologyAndResidency) {
  ShardMap map(32);
  ASSERT_TRUE(map.AddShard().ok());
  ASSERT_TRUE(map.AddShard().ok());
  ASSERT_TRUE(map.SplitShard(1).ok());
  ASSERT_TRUE(map.Route("t/a/x").ok());
  ASSERT_TRUE(map.Route("t/b/y").ok());

  auto back = ShardMap::Deserialize(map.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_shards(), map.num_shards());
  EXPECT_EQ(back->ShardIds(), map.ShardIds());
  for (int i = 0; i < 100; ++i) {
    const std::string path = "rt-" + std::to_string(i);
    EXPECT_EQ(back->ShardFor(path).value(), map.ShardFor(path).value()) << path;
  }
  // Residency carried over: no spurious migrations after recovery.
  EXPECT_FALSE(back->Route("t/a/x").value().migrated);

  // Corrupt input fails loudly instead of half-loading.
  Bytes bytes = map.Serialize();
  bytes[0] ^= 0xff;
  EXPECT_EQ(ShardMap::Deserialize(bytes).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ShardMap::Deserialize(Bytes{1, 2, 3}).status().code(),
            StatusCode::kDataLoss);
}

TEST(VersionTreeTest, RandomizedForestInvariants) {
  // Random insertion of creation roots and edits (in shuffled arrival
  // order, as metadata sync delivers them) must preserve: every inserted
  // version findable; heads have no children; history terminates; and the
  // number of live names matches a reference model.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(7000 + seed);
    std::vector<FileVersion> versions;
    std::map<std::string, std::vector<size_t>> chains;  // name -> version idx
    for (int op = 0; op < 60; ++op) {
      const std::string name = "f" + std::to_string(rng.NextBelow(6));
      auto& chain = chains[name];
      FileVersion v = MakeVersion(
          name, "content-" + std::to_string(seed) + "-" + std::to_string(op),
          chain.empty() ? Sha1Digest{}
                        : versions[chain[rng.NextBelow(chain.size())]].id);
      v.modified_time = op;
      chain.push_back(versions.size());
      versions.push_back(v);
    }
    // Shuffled arrival.
    std::vector<size_t> order(versions.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    VersionTree tree;
    for (size_t idx : order) {
      ASSERT_TRUE(tree.Insert(versions[idx]).ok());
    }
    EXPECT_EQ(tree.size(), versions.size());
    for (const FileVersion& v : versions) {
      ASSERT_NE(tree.Find(v.id), nullptr);
      auto history = tree.History(v.id);
      ASSERT_TRUE(history.ok());
      EXPECT_TRUE(IsNullDigest(history->back()->prev_id));
    }
    for (const auto& [name, chain] : chains) {
      for (const FileVersion* head : tree.Heads(name)) {
        for (const FileVersion& v : versions) {
          EXPECT_NE(v.prev_id, head->id) << "a head has a child";
        }
      }
      EXPECT_FALSE(tree.Heads(name).empty());
    }
  }
}

}  // namespace
}  // namespace cyrus
