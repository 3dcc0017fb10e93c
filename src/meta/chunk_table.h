// The global chunk table (paper §5.2): which chunks exist, their secret-
// sharing parameters, where their shares live, and how many file versions
// reference them. This is the deduplication index - before scattering a
// chunk, the uploader consults the table; a hit means zero new bytes leave
// the client (Algorithm 2, "if chunk is not stored").
//
// It is also the only owner of share layouts. Every chunk read names, keys,
// checks and decodes a chunk exactly as its entry here says (t, size,
// keying, and each share's location and digest), whatever t the version
// being read records; lazy migration, repair and scrub rewrite share rows
// here alone; and the ShareMap rows, share digests and chunk parameters of
// published metadata are projected from it (src/core/metadata_store.h).
// Incoming metadata hands its rows over once, on ingest, and a chunk the
// table already tracks keeps its entry; versions in the local tree carry
// no rows. A rebuilt layout (lazy migration, repair, digest upgrade) is
// written by one step, RepairEngine::RecordLayout.
//
// Threading discipline (deliberately no internal lock): the table is
// driver-only. Every read and every mutation happens on the client's
// driver thread; pipeline workers and readahead tasks get copies of the
// entries they read and hand changes back for the driver to record.
#ifndef SRC_META_CHUNK_TABLE_H_
#define SRC_META_CHUNK_TABLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/crypto/sha1.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

struct ChunkShare {
  uint32_t share_index = 0;
  int32_t csp = -1;
  // SHA-1 of the stored share bytes; the all-zero digest means "unknown"
  // (legacy metadata predating per-share authentication). Readers verify a
  // downloaded share against this before it enters decode; scrub verifies
  // it without decoding at all.
  Sha1Digest digest{};

  bool has_digest() const { return !(digest == Sha1Digest{}); }
};

struct ChunkEntry {
  uint64_t size = 0;
  // Plaintext bytes this chunk contributes to quota accounting. Equal to
  // `size` for chunks this client stored; kept separate so logical charge
  // and stored-share bookkeeping can diverge (dedup charges every
  // referencing tenant the logical bytes while the shares exist once).
  uint64_t logical_size = 0;
  uint32_t t = 0;
  uint32_t n = 0;
  uint32_t refcount = 0;  // number of referencing file versions
  // Convergent-dedup chunks: encoded under a content key rather than the
  // user key. `wrapped_key` is the per-user XOR-wrap of that content key
  // (src/crypto/convergent.h); empty for non-dedup chunks.
  bool dedup = false;
  Bytes wrapped_key;
  std::vector<ChunkShare> shares;
};

class ChunkTable {
 public:
  bool Contains(const Sha1Digest& chunk_id) const;
  const ChunkEntry* Find(const Sha1Digest& chunk_id) const;
  size_t size() const { return entries_.size(); }

  // Registers a new chunk with refcount 1. kAlreadyExists if present.
  Status Insert(const Sha1Digest& chunk_id, ChunkEntry entry);

  // Bumps / drops the reference count. Release keeps the entry at zero
  // references (shares stay on CSPs; other files may still adopt the chunk,
  // paper §5.4 "shares of the file's component chunks are left alone").
  Status AddRef(const Sha1Digest& chunk_id);
  Status Release(const Sha1Digest& chunk_id);

  // Removes a zero-reference entry outright. The scrub engine's orphan
  // reclaim evicts a chunk here once its shares are deleted from the CSPs
  // (or were reclaimed by another shard), so later scans stop trying to
  // repair it. kFailedPrecondition while references remain.
  Status Evict(const Sha1Digest& chunk_id);

  // Replaces the share (old_csp, old_index) with a regenerated share
  // (new_csp, new_index) - lazy migration after CSP removal (paper §5.5 /
  // Figure 9). The index changes because migration derives a fresh share
  // rather than re-creating the lost one byte-for-byte. `new_digest` is the
  // new share's digest; the all-zero digest records it as unknown.
  Status MoveShare(const Sha1Digest& chunk_id, int32_t old_csp, uint32_t old_index,
                   int32_t new_csp, uint32_t new_index, const Sha1Digest& new_digest);

  // Records (or corrects) the stored digest of one share. kNotFound if the
  // share index is not tracked for the chunk.
  Status SetShareDigest(const Sha1Digest& chunk_id, uint32_t share_index,
                        const Sha1Digest& digest);

  // Adds a share location (e.g. a regenerated share with a fresh index).
  Status AddShare(const Sha1Digest& chunk_id, ChunkShare share);

  // Replaces a tracked entry wholesale, keeping its reference count. Used
  // when a dedup chunk is re-encoded from scratch because its previous
  // objects were reclaimed by another shard's scrub - the cached layout is
  // void, not repairable share by share.
  Status Replace(const Sha1Digest& chunk_id, ChunkEntry entry);

  // Drops a share location without a replacement - scrub prunes locations
  // on dead CSPs once the chunk is back at full redundancy. kNotFound if
  // the (csp, index) pair is not recorded.
  Status RemoveShare(const Sha1Digest& chunk_id, int32_t csp, uint32_t share_index);

  // Chunk ids in table order (scrub scans the whole table).
  std::vector<Sha1Digest> AllChunkIds() const;

  // Chunk ids that have a share on the given CSP.
  std::vector<Sha1Digest> ChunksOnCsp(int32_t csp) const;

  // Total bytes of unique chunk payload tracked (pre-encoding).
  uint64_t TotalUniqueBytes() const;

 private:
  std::map<Sha1Digest, ChunkEntry> entries_;
};

}  // namespace cyrus

#endif  // SRC_META_CHUNK_TABLE_H_
