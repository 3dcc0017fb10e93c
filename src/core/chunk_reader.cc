#include "src/core/chunk_reader.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "src/crypto/naming.h"
#include "src/util/strings.h"

namespace cyrus {

void AdoptShareDigests(const std::vector<ChunkShare>& shares, ChunkRecord& record) {
  for (const ChunkShare& s : shares) {
    if (s.has_digest() && record.FindShareDigest(s.share_index) == nullptr) {
      record.SetShareDigest(s.share_index, s.digest);
    }
  }
}

ChunkRecord RecordFromEntry(const Sha1Digest& chunk_id, const ChunkEntry& entry) {
  ChunkRecord record{chunk_id, 0,           entry.size,        entry.t,
                     entry.n,  entry.dedup, entry.wrapped_key, {}};
  AdoptShareDigests(entry.shares, record);
  return record;
}

ChunkEntry EntryFromRecord(const ChunkRecord& record, std::vector<ChunkShare> shares) {
  for (ChunkShare& share : shares) {
    const Sha1Digest* digest = record.FindShareDigest(share.share_index);
    if (!share.has_digest() && digest != nullptr) {
      share.digest = *digest;
    }
  }
  return ChunkEntry{record.size, record.size, record.t, record.n, /*refcount=*/0,
                    record.dedup, record.wrapped_key, std::move(shares)};
}

Result<SecretSharingCodec> ChunkReader::CodecFor(const ChunkRecord& chunk) const {
  CYRUS_ASSIGN_OR_RETURN(std::string key, context_.chunk_key(chunk));
  return SecretSharingCodec::Create(key, chunk.t, kMaxShares);
}

Result<std::vector<ShareDigest>> ChunkReader::DeriveDigests(
    const ChunkRecord& chunk, ByteSpan plaintext, const std::vector<uint32_t>& indices) {
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, CodecFor(chunk));
  const size_t share_len = ShareSize(chunk.size, chunk.t);
  PooledBuffer buffer =
      context_.buffers->Acquire(std::max<size_t>(share_len * indices.size(), 1));
  const MutableByteSpan all = buffer.span(share_len * indices.size());
  std::vector<ByteSpan> shares;
  for (size_t i = 0; i < indices.size(); ++i) {
    const MutableByteSpan share = all.subspan(i * share_len, share_len);
    CYRUS_RETURN_IF_ERROR(codec.EncodeShareInto(plaintext, indices[i], share));
    shares.push_back(share);
  }
  std::vector<Sha1Digest> hashed(indices.size());
  Sha1::HashMany(shares, hashed);
  std::vector<ShareDigest> digests;
  for (size_t i = 0; i < indices.size(); ++i) {
    digests.push_back(ShareDigest{indices[i], hashed[i]});
  }
  return digests;
}

// A share downloaded ahead of consumption, keyed by CSP in its chunk's
// Pending. Its transfer records are journaled only when it is consumed.
struct ChunkReader::Download {
  Result<Bytes> data = InternalError("not fetched");
  TransferReport report;
  uint32_t share_index = 0;
  std::optional<Sha1Digest> digest;  // SHA-1 of `data`, when hashed ahead
};

// One chunk's state between the group's shared passes.
struct ChunkReader::Pending {
  std::vector<ShareLocation> order;  // one per active CSP, preferred first
  size_t primaries = 0;              // order's prefix fetched ahead
  std::map<int, Download> fetched;
};

Status ChunkReader::Read(const ChunkRecord& chunk,
                         const std::vector<ShareLocation>& locations,
                         const ChunkReadOptions& options, MutableByteSpan dst,
                         ChunkReadResult& result) {
  ChunkReadRequest request{&chunk, &locations, options, dst, &result};
  ReadGroup(std::span<ChunkReadRequest>(&request, 1));
  return request.status;
}

void ChunkReader::ReadGroup(std::span<ChunkReadRequest> group) {
  // Candidate locations, one per active CSP, preferred picks first.
  std::vector<Pending> pending(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    const ChunkReadRequest& request = group[i];
    std::vector<ShareLocation>& order = pending[i].order;
    auto add = [&](const ShareLocation& loc) {
      if (!context_.registry->IsActive(loc.csp)) {
        return;
      }
      for (const ShareLocation& have : order) {
        if (have.csp == loc.csp) {
          return;
        }
      }
      order.push_back(loc);
    };
    for (int csp : request.options.preferred) {
      for (const ShareLocation& loc : *request.locations) {
        if (loc.csp == csp) {
          add(loc);
          break;
        }
      }
    }
    pending[i].primaries = order.size();
    for (const ShareLocation& loc : *request.locations) {
      add(loc);
    }
    if (request.options.all_shares) {
      pending[i].primaries = order.size();
    }
  }

  // Downloads run ahead of consumption, every chunk's in one fork-join
  // section on the transfer pool, one task per primary. Every task writes
  // only its own map entry, which exists before the section starts.
  struct Job {
    size_t chunk;
    size_t primary;
  };
  std::vector<Job> jobs;
  for (size_t i = 0; i < group.size(); ++i) {
    Pending& p = pending[i];
    if (context_.pool == nullptr || group[i].dst.size() != group[i].chunk->size) {
      continue;
    }
    for (size_t k = 0; k < p.primaries; ++k) {
      p.fetched.try_emplace(p.order[k].csp);
      jobs.push_back(Job{i, k});
    }
  }
  ParallelFor(context_.pool, jobs.size(), [&](size_t j) {
    Pending& p = pending[jobs[j].chunk];
    const ShareLocation& loc = p.order[jobs[j].primary];
    DownloadShare(*group[jobs[j].chunk].chunk, loc, p.fetched.at(loc.csp));
  });

  // Every fetched share with a recorded digest is hashed in one pass, a
  // lane per share, before any chunk consumes one.
  std::vector<ByteSpan> inputs;
  std::vector<Download*> hashed;
  for (size_t i = 0; i < group.size(); ++i) {
    for (auto& [csp, landed] : pending[i].fetched) {
      if (landed.data.ok() && group[i].chunk->FindShareDigest(landed.share_index) != nullptr) {
        inputs.push_back(*landed.data);
        hashed.push_back(&landed);
      }
    }
  }
  std::vector<Sha1Digest> digests(inputs.size());
  Sha1::HashMany(inputs, digests);
  for (size_t k = 0; k < hashed.size(); ++k) {
    hashed[k]->digest = digests[k];
  }

  ParallelFor(context_.pool, group.size(),
              [&](size_t i) { group[i].status = Finish(group[i], pending[i]); });
}

void ChunkReader::DownloadShare(const ChunkRecord& chunk, const ShareLocation& loc,
                                Download& out) {
  out.share_index = loc.share_index;
  out.data = context_.calls->Download(loc.csp, TransferKind::kGet,
                                      ShareName(chunk.id, loc.share_index, chunk.t),
                                      out.report);
}

Status ChunkReader::Finish(const ChunkReadRequest& request, Pending& p) {
  const ChunkRecord& chunk = *request.chunk;
  const ChunkReadOptions& options = request.options;
  const MutableByteSpan dst = request.dst;
  ChunkReadResult& result = *request.result;
  if (dst.size() != chunk.size) {
    return InvalidArgumentError("chunk read destination size mismatch");
  }

  // Consumption authenticates each share before it may enter the decoder.
  // `shares` keeps the digest-verified ones as a prefix, so the decode
  // prefers them; `holder` maps share index -> location for healing.
  std::vector<Share> shares;
  size_t verified = 0;
  std::map<uint32_t, ShareLocation> holder;
  std::set<int> attempted;
  auto consume = [&](const ShareLocation& loc) {
    if (!attempted.insert(loc.csp).second) {
      return;
    }
    Download got;
    if (auto it = p.fetched.find(loc.csp); it != p.fetched.end()) {
      got = std::move(it->second);
      p.fetched.erase(it);
    } else {
      DownloadShare(chunk, loc, got);
    }
    result.report.Append(got.report);
    if (!got.data.ok()) {
      return;
    }
    ++result.shares_downloaded;
    result.bytes_moved += got.data->size();
    const Sha1Digest* want = chunk.FindShareDigest(loc.share_index);
    if (want != nullptr && (got.digest ? *got.digest : Sha1::Hash(*got.data)) != *want) {
      ++result.integrity_rejected;
      result.corrupt.push_back(loc);
      if (options.quarantine) {
        context_.on_integrity_failure(loc.csp);
      } else {
        context_.monitor->RecordIntegrityFailure(loc.csp);
      }
      return;
    }
    context_.monitor->RecordProbe(loc.csp, context_.now(), true);
    holder.emplace(loc.share_index, loc);
    Share share{loc.share_index, *std::move(got.data)};
    if (want != nullptr) {
      shares.insert(shares.begin() + static_cast<ptrdiff_t>(verified++), std::move(share));
    } else {
      shares.push_back(std::move(share));
    }
  };

  // A share downloaded ahead is consumed even when a failure has taken its
  // CSP out of the active set since: its records belong in the report, and
  // its bytes are authenticated like any other.
  auto usable = [&](const ShareLocation& loc) {
    return p.fetched.contains(loc.csp) || context_.registry->IsActive(loc.csp);
  };
  const size_t need = options.all_shares ? p.order.size() : chunk.t;
  for (const ShareLocation& loc : p.order) {
    if (shares.size() >= need) {
      break;
    }
    if (usable(loc)) {
      consume(loc);
    }
  }
  if (shares.size() < chunk.t) {
    if (result.integrity_rejected > 0) {
      return IntegrityError(StrCat("chunk ", chunk.id.ToHex(), ": only ", shares.size(),
                                   " of t=", chunk.t, " shares authenticated (",
                                   result.integrity_rejected,
                                   " failed share digest checks)"));
    }
    return DataLossError(StrCat("chunk ", chunk.id.ToHex(), ": only ", shares.size(),
                                " of t=", chunk.t, " shares reachable"));
  }
  if (options.all_shares && verified == shares.size() && result.corrupt.empty()) {
    return OkStatus();  // every stored share authenticated clean
  }

  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, CodecFor(chunk));
  // Digests authenticate the plaintext only when this user recorded them.
  // A convergent record's may have been adopted from another writer's
  // ShareIndex entry, and prove only that the CSPs serve what that writer
  // published. Plaintext that a heal (or the caller) writes back is
  // hashed too, so a wrong decode can never spread.
  const bool trusted = verified >= chunk.t && !chunk.dedup && result.corrupt.empty() &&
                       !options.verify_plaintext;
  bool ok = false;
  // An audit with unauthenticated shares goes straight to the
  // error-correcting decode: it must check every share, not just t.
  if (!options.all_shares || verified == shares.size()) {
    const Status decoded = codec.DecodeInto(shares, dst);
    if (trusted) {
      CYRUS_RETURN_IF_ERROR(decoded);
    }
    ok = decoded.ok() && (trusted || Sha1::Hash(dst) == chunk.id);
  }
  if (!ok) {
    // An unauthenticated share is corrupt (bit rot or a tampering provider
    // on a record that predates per-share digests). Pull every reachable
    // share and run the error-correcting decode (§5.1 footnote 9): the
    // exhaustive t-subset search recovers the plaintext and names the
    // corrupt indices.
    result.corrected = true;
    for (const ShareLocation& loc : p.order) {
      if (usable(loc)) {
        consume(loc);
      }
    }
    auto corrected = codec.DecodeWithErrorCorrection(shares, chunk.size);
    if (!corrected.ok() || Sha1::Hash(corrected->chunk) != chunk.id) {
      return IntegrityError(
          StrCat("chunk ", chunk.id.ToHex(), " failed integrity check after decode"));
    }
    std::copy(corrected->chunk.begin(), corrected->chunk.end(), dst.begin());
    for (uint32_t index : corrected->corrupted_indices) {
      if (auto it = holder.find(index); it != holder.end()) {
        result.corrupt.push_back(it->second);
      }
    }
  }
  result.decoded = true;

  // Heal in place from the verified plaintext, so a transiently corrupting
  // CSP stops poisoning later reads. Best effort: a failed heal is the
  // scrub's problem, not this read's.
  if (!options.heal) {
    return OkStatus();
  }
  const size_t share_len = ShareSize(chunk.size, chunk.t);
  for (const ShareLocation& loc : result.corrupt) {
    if (!context_.registry->IsActive(loc.csp)) {
      continue;
    }
    PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
    const MutableByteSpan fresh = buffer.span(share_len);
    if (codec.EncodeShareInto(dst, loc.share_index, fresh).ok() &&
        context_.calls
            ->Upload(loc.csp, TransferKind::kPut, ShareName(chunk.id, loc.share_index, chunk.t),
                     fresh, result.report)
            .ok()) {
      ++result.healed;
      result.bytes_moved += fresh.size();
    }
  }
  return OkStatus();
}

}  // namespace cyrus
