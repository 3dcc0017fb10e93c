#include "src/core/chunk_reader.h"

#include <algorithm>
#include <map>
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
  PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
  const MutableByteSpan share = buffer.span(share_len);
  std::vector<ShareDigest> digests;
  for (uint32_t index : indices) {
    CYRUS_RETURN_IF_ERROR(codec.EncodeShareInto(plaintext, index, share));
    digests.push_back(ShareDigest{index, Sha1::Hash(share)});
  }
  return digests;
}

Status ChunkReader::Read(const ChunkRecord& chunk,
                         const std::vector<ShareLocation>& locations,
                         const ChunkReadOptions& options, MutableByteSpan dst,
                         ChunkReadResult& result) {
  if (dst.size() != chunk.size) {
    return InvalidArgumentError("chunk read destination size mismatch");
  }
  // Candidate locations, one per active CSP, preferred picks first.
  std::vector<ShareLocation> order;
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
  for (int csp : options.preferred) {
    for (const ShareLocation& loc : locations) {
      if (loc.csp == csp) {
        add(loc);
        break;
      }
    }
  }
  size_t primaries = order.size();
  for (const ShareLocation& loc : locations) {
    add(loc);
  }
  if (options.all_shares) {
    primaries = order.size();
  }
  auto object_of = [&](const ShareLocation& loc) {
    return ShareName(chunk.id, loc.share_index, chunk.t);
  };

  // Downloads run ahead of consumption: the primaries concurrently on the
  // transfer pool, or raced by the hedged fetcher against adaptive per-CSP
  // deadlines with the other locations as spares. Each lands here keyed by
  // CSP; its transfer records are journaled only when it is consumed.
  struct Download {
    Result<Bytes> data = InternalError("not fetched");
    TransferReport report;
  };
  auto download = [&](const ShareLocation& loc, Download& out) {
    auto conn = context_.registry->connector(loc.csp);
    if (!conn.ok()) {
      out.data = conn.status();
      return;
    }
    out.data = DownloadWithRetry(**conn, TransferKind::kGet, loc.csp, object_of(loc),
                                 options.retry, out.report);
  };
  std::map<int, Download> fetched;
  if (context_.fetcher != nullptr && !options.all_shares && primaries > 0) {
    std::vector<HedgeCandidate> candidates;
    std::vector<const ShareLocation*> candidate_locs;
    size_t hedge_primaries = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      auto conn = context_.registry->connector(order[i].csp);
      if (!conn.ok()) {
        continue;
      }
      CloudConnector* raw = *conn;
      const std::string object = object_of(order[i]);
      const RetryOptions retry = options.retry;
      candidates.push_back(HedgeCandidate{
          order[i].csp, order[i].share_index, [raw, object, retry]() -> Result<Bytes> {
            return RetryWithBackoff(
                retry, [&]() -> Result<Bytes> { return raw->Download(object); });
          }});
      candidate_locs.push_back(&order[i]);
      hedge_primaries += i < primaries ? 1 : 0;
    }
    for (HedgeFetchResult& outcome :
         context_.fetcher->Fetch(std::move(candidates), hedge_primaries, chunk.t)) {
      // Only hedges that delivered a share count; launch totals live in
      // cyrus_hedged_requests_total.
      if (outcome.hedged && outcome.data.ok()) {
        ++result.hedged_downloads;
      }
      const ShareLocation& loc = *candidate_locs[outcome.candidate];
      Download& landed = fetched[loc.csp];
      landed.report.records.push_back(TransferRecord{
          TransferKind::kGet, loc.csp, object_of(loc),
          outcome.data.ok() ? outcome.data->size() : uint64_t{0}, outcome.data.ok()});
      landed.data = std::move(outcome.data);
    }
  } else if (context_.pool != nullptr && primaries > 1) {
    std::vector<Download> downloads(primaries);
    context_.pool->ParallelFor(primaries,
                               [&](size_t k) { download(order[k], downloads[k]); });
    for (size_t k = 0; k < primaries; ++k) {
      fetched.emplace(order[k].csp, std::move(downloads[k]));
    }
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
    if (auto it = fetched.find(loc.csp); it != fetched.end()) {
      got = std::move(it->second);
      fetched.erase(it);
    } else {
      download(loc, got);
    }
    result.report.Append(got.report);
    if (!got.data.ok()) {
      context_.on_transfer_failure(loc.csp, got.data.status());
      return;
    }
    ++result.shares_downloaded;
    result.bytes_moved += got.data->size();
    const Sha1Digest* want = chunk.FindShareDigest(loc.share_index);
    if (want != nullptr && Sha1::Hash(*got.data) != *want) {
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

  const size_t need = options.all_shares ? order.size() : chunk.t;
  // Downloads already in hand go first: a hedge that beat a straggling
  // primary lives under a spare CSP, and walking preferred order first
  // would re-download the slow share inline.
  for (const ShareLocation& loc : order) {
    if (shares.size() >= need) {
      break;
    }
    auto it = fetched.find(loc.csp);
    if (it != fetched.end() && it->second.data.ok() &&
        context_.registry->IsActive(loc.csp)) {
      consume(loc);
    }
  }
  for (const ShareLocation& loc : order) {
    if (shares.size() >= need) {
      break;
    }
    if (context_.registry->IsActive(loc.csp)) {
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
    for (const ShareLocation& loc : order) {
      if (context_.registry->IsActive(loc.csp)) {
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
    auto conn = context_.registry->connector(loc.csp);
    if (!context_.registry->IsActive(loc.csp) || !conn.ok()) {
      continue;
    }
    PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
    const MutableByteSpan fresh = buffer.span(share_len);
    if (codec.EncodeShareInto(dst, loc.share_index, fresh).ok() &&
        UploadWithRetry(**conn, TransferKind::kPut, loc.csp, object_of(loc), fresh,
                        options.retry, result.report)
            .ok()) {
      ++result.healed;
      result.bytes_moved += fresh.size();
    }
  }
  return OkStatus();
}

}  // namespace cyrus
