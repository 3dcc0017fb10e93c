#include "src/meta/chunk_table.h"

#include "src/meta/serialize.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr uint32_t kMagic = 0x43595254;  // "CYRT"
// v2 adds logical_size + the convergent-dedup fields per entry; v3 adds a
// per-share digest. v1/v2 streams are still readable (logical_size defaults
// to size, dedup to off, digests to unknown).
constexpr uint32_t kFormatVersion = 3;

}  // namespace

bool ChunkTable::Contains(const Sha1Digest& chunk_id) const {
  return entries_.count(chunk_id) > 0;
}

const ChunkEntry* ChunkTable::Find(const Sha1Digest& chunk_id) const {
  auto it = entries_.find(chunk_id);
  return it == entries_.end() ? nullptr : &it->second;
}

Status ChunkTable::Insert(const Sha1Digest& chunk_id, ChunkEntry entry) {
  if (Contains(chunk_id)) {
    return AlreadyExistsError(StrCat("chunk ", chunk_id.ToHex(), " already tracked"));
  }
  entry.refcount = 1;
  if (entry.logical_size == 0) {
    entry.logical_size = entry.size;
  }
  entries_.emplace(chunk_id, std::move(entry));
  return OkStatus();
}

Status ChunkTable::Evict(const Sha1Digest& chunk_id) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  if (it->second.refcount > 0) {
    return FailedPreconditionError(StrCat("chunk ", chunk_id.ToHex(), " still has ",
                                          it->second.refcount, " references"));
  }
  entries_.erase(it);
  return OkStatus();
}

Status ChunkTable::AddRef(const Sha1Digest& chunk_id) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  ++it->second.refcount;
  return OkStatus();
}

Status ChunkTable::Release(const Sha1Digest& chunk_id) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  if (it->second.refcount == 0) {
    return FailedPreconditionError(
        StrCat("chunk ", chunk_id.ToHex(), " released below zero references"));
  }
  --it->second.refcount;
  return OkStatus();
}

Status ChunkTable::MoveShare(const Sha1Digest& chunk_id, int32_t old_csp,
                             uint32_t old_index, int32_t new_csp, uint32_t new_index,
                             const Sha1Digest& new_digest) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  for (ChunkShare& share : it->second.shares) {
    if (share.csp == old_csp && share.share_index == old_index) {
      share.csp = new_csp;
      share.share_index = new_index;
      // Migration derives fresh share bytes, so the old digest never
      // applies.
      share.digest = new_digest;
      return OkStatus();
    }
  }
  return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " has no share ", old_index,
                              " on CSP ", old_csp));
}

Status ChunkTable::SetShareDigest(const Sha1Digest& chunk_id, uint32_t share_index,
                                  const Sha1Digest& digest) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  for (ChunkShare& share : it->second.shares) {
    if (share.share_index == share_index) {
      share.digest = digest;
      return OkStatus();
    }
  }
  return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " has no share ",
                              share_index));
}

Status ChunkTable::Replace(const Sha1Digest& chunk_id, ChunkEntry entry) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  entry.refcount = it->second.refcount;
  it->second = std::move(entry);
  return OkStatus();
}

Status ChunkTable::AddShare(const Sha1Digest& chunk_id, ChunkShare share) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  for (const ChunkShare& existing : it->second.shares) {
    if (existing.share_index == share.share_index) {
      return AlreadyExistsError(
          StrCat("chunk ", chunk_id.ToHex(), " already has share ", share.share_index));
    }
  }
  it->second.shares.push_back(share);
  return OkStatus();
}

Status ChunkTable::RemoveShare(const Sha1Digest& chunk_id, int32_t csp,
                               uint32_t share_index) {
  auto it = entries_.find(chunk_id);
  if (it == entries_.end()) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not tracked"));
  }
  std::vector<ChunkShare>& shares = it->second.shares;
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].csp == csp && shares[i].share_index == share_index) {
      shares.erase(shares.begin() + i);
      return OkStatus();
    }
  }
  return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " has no share ",
                              share_index, " on CSP ", csp));
}

std::vector<Sha1Digest> ChunkTable::AllChunkIds() const {
  std::vector<Sha1Digest> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(id);
  }
  return out;
}

std::vector<Sha1Digest> ChunkTable::ChunksOnCsp(int32_t csp) const {
  std::vector<Sha1Digest> out;
  for (const auto& [id, entry] : entries_) {
    for (const ChunkShare& share : entry.shares) {
      if (share.csp == csp) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

uint64_t ChunkTable::TotalUniqueBytes() const {
  uint64_t total = 0;
  for (const auto& [id, entry] : entries_) {
    total += entry.size;
  }
  return total;
}

Bytes ChunkTable::Serialize() const {
  BinaryWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [id, entry] : entries_) {
    w.WriteDigest(id);
    w.WriteU64(entry.size);
    w.WriteU32(entry.t);
    w.WriteU32(entry.n);
    w.WriteU32(entry.refcount);
    w.WriteU64(entry.logical_size);
    w.WriteU8(entry.dedup ? 1 : 0);
    w.WriteBytes(entry.wrapped_key);
    w.WriteU32(static_cast<uint32_t>(entry.shares.size()));
    for (const ChunkShare& share : entry.shares) {
      w.WriteU32(share.share_index);
      w.WriteI32(share.csp);
      w.WriteDigest(share.digest);
    }
  }
  return w.TakeData();
}

Result<ChunkTable> ChunkTable::Deserialize(ByteSpan data) {
  BinaryReader r(data);
  CYRUS_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return DataLossError("chunk table magic mismatch");
  }
  CYRUS_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version < 1 || version > kFormatVersion) {
    return DataLossError(StrCat("unsupported chunk table version ", version));
  }
  ChunkTable table;
  CYRUS_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    CYRUS_ASSIGN_OR_RETURN(Sha1Digest id, r.ReadDigest());
    ChunkEntry entry;
    CYRUS_ASSIGN_OR_RETURN(entry.size, r.ReadU64());
    CYRUS_ASSIGN_OR_RETURN(entry.t, r.ReadU32());
    CYRUS_ASSIGN_OR_RETURN(entry.n, r.ReadU32());
    CYRUS_ASSIGN_OR_RETURN(entry.refcount, r.ReadU32());
    if (version >= 2) {
      CYRUS_ASSIGN_OR_RETURN(entry.logical_size, r.ReadU64());
      CYRUS_ASSIGN_OR_RETURN(uint8_t dedup, r.ReadU8());
      entry.dedup = dedup != 0;
      CYRUS_ASSIGN_OR_RETURN(entry.wrapped_key, r.ReadBytes());
    } else {
      entry.logical_size = entry.size;  // v1 predates the distinction
    }
    CYRUS_ASSIGN_OR_RETURN(uint32_t num_shares, r.ReadU32());
    for (uint32_t s = 0; s < num_shares; ++s) {
      ChunkShare share;
      CYRUS_ASSIGN_OR_RETURN(share.share_index, r.ReadU32());
      CYRUS_ASSIGN_OR_RETURN(share.csp, r.ReadI32());
      if (version >= 3) {
        CYRUS_ASSIGN_OR_RETURN(share.digest, r.ReadDigest());
      }
      entry.shares.push_back(share);
    }
    table.entries_.emplace(id, std::move(entry));
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes after chunk table");
  }
  return table;
}

}  // namespace cyrus
