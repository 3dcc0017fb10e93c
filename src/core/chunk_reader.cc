#include "src/core/chunk_reader.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "src/crypto/naming.h"
#include "src/util/strings.h"

namespace cyrus {

Result<SecretSharingCodec> ChunkReader::CodecFor(const Sha1Digest& chunk_id,
                                                 const ChunkEntry& entry) const {
  CYRUS_ASSIGN_OR_RETURN(std::string key, context_.chunk_key(chunk_id, entry));
  return SecretSharingCodec::Create(key, entry.t, kMaxShares);
}

Result<std::vector<ShareDigest>> ChunkReader::DeriveDigests(
    const Sha1Digest& chunk_id, const ChunkEntry& entry, ByteSpan plaintext,
    const std::vector<uint32_t>& indices) {
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, CodecFor(chunk_id, entry));
  const size_t share_len = ShareSize(entry.size, entry.t);
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
  ChunkShare row;                    // the table row it was fetched for
  std::optional<Sha1Digest> digest;  // SHA-1 of `data`, when hashed ahead
};

// One chunk's state between the group's shared passes.
struct ChunkReader::Pending {
  std::vector<ChunkShare> order;  // one row per active CSP, preferred first
  size_t primaries = 0;              // order's prefix fetched ahead
  std::map<int, Download> fetched;
};

Status ChunkReader::Read(const Sha1Digest& chunk_id, const ChunkEntry& entry,
                         const ChunkReadOptions& options, MutableByteSpan dst,
                         ChunkReadResult& result) {
  ChunkReadRequest request{chunk_id, &entry, options, dst, &result};
  ReadGroup(std::span<ChunkReadRequest>(&request, 1));
  return request.status;
}

void ChunkReader::ReadGroup(std::span<ChunkReadRequest> group) {
  // Candidate rows, one per active CSP, preferred picks first.
  std::vector<Pending> pending(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    const ChunkReadRequest& request = group[i];
    std::vector<ChunkShare>& order = pending[i].order;
    auto add = [&](const ChunkShare& row) {
      if (!context_.registry->IsActive(row.csp)) {
        return;
      }
      for (const ChunkShare& have : order) {
        if (have.csp == row.csp) {
          return;
        }
      }
      order.push_back(row);
    };
    for (int csp : request.options.preferred) {
      for (const ChunkShare& row : request.entry->shares) {
        if (row.csp == csp) {
          add(row);
          break;
        }
      }
    }
    pending[i].primaries = order.size();
    for (const ChunkShare& row : request.entry->shares) {
      add(row);
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
    if (context_.pool == nullptr || group[i].dst.size() != group[i].entry->size) {
      continue;
    }
    for (size_t k = 0; k < p.primaries; ++k) {
      p.fetched.try_emplace(p.order[k].csp);
      jobs.push_back(Job{i, k});
    }
  }
  ParallelFor(context_.pool, jobs.size(), [&](size_t j) {
    Pending& p = pending[jobs[j].chunk];
    const ChunkShare& row = p.order[jobs[j].primary];
    DownloadShare(group[jobs[j].chunk], row, p.fetched.at(row.csp));
  });

  // Every fetched share whose row has a digest is hashed in one pass, a
  // lane per share, before any chunk consumes one.
  std::vector<ByteSpan> inputs;
  std::vector<Download*> hashed;
  for (size_t i = 0; i < group.size(); ++i) {
    for (auto& [csp, landed] : pending[i].fetched) {
      if (landed.data.ok() && landed.row.has_digest()) {
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

void ChunkReader::DownloadShare(const ChunkReadRequest& request, const ChunkShare& row,
                                Download& out) {
  out.row = row;
  out.data = context_.calls->Download(
      row.csp, TransferKind::kGet,
      ShareName(request.chunk_id, row.share_index, request.entry->t), out.report);
}

Status ChunkReader::Finish(const ChunkReadRequest& request, Pending& p) {
  const Sha1Digest& id = request.chunk_id;
  const ChunkEntry& entry = *request.entry;
  const ChunkReadOptions& options = request.options;
  const MutableByteSpan dst = request.dst;
  ChunkReadResult& result = *request.result;
  if (dst.size() != entry.size) {
    return InvalidArgumentError("chunk read destination size mismatch");
  }

  // Consumption authenticates each share before it may enter the decoder.
  // `shares` keeps the digest-verified ones as a prefix, so the decode
  // prefers them; `holder` maps share index -> row for healing.
  std::vector<Share> shares;
  size_t verified = 0;
  std::map<uint32_t, ChunkShare> holder;
  std::set<int> attempted;
  auto consume = [&](const ChunkShare& row) {
    if (!attempted.insert(row.csp).second) {
      return;
    }
    Download got;
    if (auto it = p.fetched.find(row.csp); it != p.fetched.end()) {
      got = std::move(it->second);
      p.fetched.erase(it);
    } else {
      DownloadShare(request, row, got);
    }
    result.report.Append(got.report);
    if (!got.data.ok()) {
      return;
    }
    ++result.shares_downloaded;
    result.bytes_moved += got.data->size();
    const bool digested = row.has_digest();
    if (digested && (got.digest ? *got.digest : Sha1::Hash(*got.data)) != row.digest) {
      ++result.integrity_rejected;
      result.corrupt.push_back(row);
      if (options.quarantine) {
        context_.on_integrity_failure(row.csp);
      } else {
        context_.monitor->RecordIntegrityFailure(row.csp);
      }
      return;
    }
    context_.monitor->RecordProbe(row.csp, context_.now(), true);
    holder.emplace(row.share_index, row);
    Share share{row.share_index, *std::move(got.data)};
    if (digested) {
      shares.insert(shares.begin() + static_cast<ptrdiff_t>(verified++), std::move(share));
    } else {
      shares.push_back(std::move(share));
    }
  };

  // A share downloaded ahead is consumed even when a failure has taken its
  // CSP out of the active set since: its records belong in the report, and
  // its bytes are authenticated like any other.
  auto usable = [&](const ChunkShare& row) {
    return p.fetched.contains(row.csp) || context_.registry->IsActive(row.csp);
  };
  const size_t need = options.all_shares ? p.order.size() : entry.t;
  for (const ChunkShare& row : p.order) {
    if (shares.size() >= need) {
      break;
    }
    if (usable(row)) {
      consume(row);
    }
  }
  if (shares.size() < entry.t) {
    if (result.integrity_rejected > 0) {
      return IntegrityError(StrCat("chunk ", id.ToHex(), ": only ", shares.size(),
                                   " of t=", entry.t, " shares authenticated (",
                                   result.integrity_rejected,
                                   " failed share digest checks)"));
    }
    return DataLossError(StrCat("chunk ", id.ToHex(), ": only ", shares.size(),
                                " of t=", entry.t, " shares reachable"));
  }
  if (options.all_shares && verified == shares.size() && result.corrupt.empty()) {
    return OkStatus();  // every stored share authenticated clean
  }

  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, CodecFor(id, entry));
  // Digests authenticate the plaintext only when this user recorded them.
  // A convergent entry's may have been adopted from another writer's
  // ShareIndex entry, and prove only that the CSPs serve what that writer
  // published. Plaintext that a heal (or the caller) writes back is
  // hashed too, so a wrong decode can never spread.
  const bool trusted = verified >= entry.t && !entry.dedup && result.corrupt.empty() &&
                       !options.verify_plaintext;
  bool ok = false;
  // An audit with unauthenticated shares goes straight to the
  // error-correcting decode: it must check every share, not just t.
  if (!options.all_shares || verified == shares.size()) {
    const Status decoded = codec.DecodeInto(shares, dst);
    if (trusted) {
      CYRUS_RETURN_IF_ERROR(decoded);
    }
    ok = decoded.ok() && (trusted || Sha1::Hash(dst) == id);
  }
  if (!ok) {
    // An unauthenticated share is corrupt (bit rot or a tampering provider
    // on a row that predates per-share digests). Pull every reachable
    // share and run the error-correcting decode (§5.1 footnote 9): the
    // exhaustive t-subset search recovers the plaintext and names the
    // corrupt indices.
    result.corrected = true;
    for (const ChunkShare& row : p.order) {
      if (usable(row)) {
        consume(row);
      }
    }
    auto corrected = codec.DecodeWithErrorCorrection(shares, entry.size);
    if (!corrected.ok() || Sha1::Hash(corrected->chunk) != id) {
      return IntegrityError(
          StrCat("chunk ", id.ToHex(), " failed integrity check after decode"));
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
  const size_t share_len = ShareSize(entry.size, entry.t);
  for (const ChunkShare& row : result.corrupt) {
    if (!context_.registry->IsActive(row.csp)) {
      continue;
    }
    PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
    const MutableByteSpan fresh = buffer.span(share_len);
    if (codec.EncodeShareInto(dst, row.share_index, fresh).ok() &&
        context_.calls
            ->Upload(row.csp, TransferKind::kPut, ShareName(id, row.share_index, entry.t),
                     fresh, result.report)
            .ok()) {
      ++result.healed;
      result.bytes_moved += fresh.size();
    }
  }
  return OkStatus();
}

}  // namespace cyrus
