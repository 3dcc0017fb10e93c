#include "src/meta/chunk_table.h"

#include "src/util/strings.h"

namespace cyrus {

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

}  // namespace cyrus
