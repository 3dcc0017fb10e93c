// ChunkWriter: the one chunk write path.
//
// Every producer of stored shares writes through it: Put's scatter of a new
// chunk, the re-scatter of a dedup chunk whose objects were reclaimed, lazy
// migration off failed or removed CSPs, and the scrub's repair rebuild. A
// write encodes shares into pooled buffers, places them through the hash
// ring (one share per CSP), journals each (csp, object) target before its
// upload, and uploads - a scatter's first pass concurrently on the transfer
// pool. A failed share moves to up to three further ring picks, never onto
// a CSP already holding a share of the chunk. Uploads go through the
// client's CspCalls, which retries them and routes a provider failure
// into the client's one health path, so that path decides when a CSP
// leaves placement. Placed shares come back with the SHA-1 of their bytes.
// A scatter hashes all its shares with one Sha1::HashMany on the calling
// thread while the first-pass uploads run on the pool; a failed-over share
// keeps that digest, since it uploads the same bytes.
//
// Writes touch only thread-safe components (call layer, ring, monitor,
// pools), so they run on pipeline workers and the driver alike. Recording
// the result - chunk table, ShareIndex, metadata - stays with the caller.
// The ChunkReader's in-place heal (same index, same CSP) is not a placement
// and stays there.
#ifndef SRC_CORE_CHUNK_WRITER_H_
#define SRC_CORE_CHUNK_WRITER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/cloud/availability.h"
#include "src/core/hash_ring.h"
#include "src/core/transfer.h"
#include "src/meta/chunk_table.h"
#include "src/obs/trace.h"
#include "src/rs/secret_sharing.h"
#include "src/util/buffer_pool.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace cyrus {

// Everything a writer borrows from the owning client. Raw pointers: the
// client owns the writer and every pointee. `pool` may be null (uploads
// then run sequentially) and so may `journal`.
struct ChunkWriterContext {
  CspCalls* calls = nullptr;
  HashRing* ring = nullptr;
  AvailabilityMonitor* monitor = nullptr;
  ThreadPool* pool = nullptr;
  BufferPool* buffers = nullptr;
  // At most one share of a chunk per platform cluster (§4.1).
  bool cluster_aware = false;
  std::function<double()> now;
  // Write-ahead log of each upload target, called before the upload with
  // the caller's journal intent (empty outside a Put). A failure aborts
  // the write.
  std::function<Status(const std::string& intent, int csp, const std::string& object)>
      journal;
};

class ChunkWriter {
 public:
  explicit ChunkWriter(ChunkWriterContext context) : context_(std::move(context)) {}

  // Disperses `chunk` into codec.n() shares, index i on the i-th CSP of
  // the chunk's ring placement. When fewer CSPs are eligible than n, the
  // widest placement of at least `quorum` is used and the rest are not
  // uploaded. Fails with kUnavailable when fewer than `quorum` shares
  // landed. `trace` receives encode/place/upload spans. Shares come back
  // in index order.
  Result<std::vector<ChunkShare>> Scatter(const SecretSharingCodec& codec,
                                          const Sha1Digest& chunk_id, ByteSpan chunk,
                                          uint32_t quorum, const std::string& intent,
                                          TransferReport& report, obs::TraceBuilder& trace);

  // Encodes `count` fresh share indices from `first_index` out of verified
  // `plaintext` and places each on a CSP outside `exclude` (every CSP that
  // already holds a share of the chunk). Stops at the first share no CSP
  // would take, so fewer than `count` shares may come back.
  Result<std::vector<ChunkShare>> Extend(const SecretSharingCodec& codec,
                                         const Sha1Digest& chunk_id, ByteSpan plaintext,
                                         uint32_t first_index, uint32_t count,
                                         std::vector<int> exclude,
                                         TransferReport& report);

 private:
  // Places one share on a ring pick outside `exclude`, trying up to three
  // picks; every CSP tried joins `exclude`. Returns the CSP that took it,
  // -1 when none did; fails only when the journal does.
  Result<int> PlaceOne(const Sha1Digest& chunk_id, uint32_t index, uint32_t t,
                       ByteSpan share, std::vector<int>& exclude,
                       const std::string& intent, TransferReport& report);

  ChunkWriterContext context_;
};

}  // namespace cyrus

#endif  // SRC_CORE_CHUNK_WRITER_H_
