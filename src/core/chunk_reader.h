// ChunkReader: the one chunk read path.
//
// Every consumer of stored chunks reads through ReadGroup() (Read() is its
// one-chunk form): foreground Get/GetRange gathers read groups of chunks,
// while readahead prefetches, scrub repair and the scrub integrity sweep
// read one chunk at a time. A group read
//
//   1. downloads every chunk's preferred CSPs (normally the selector's
//      picks) ahead of consumption, all of the group's in one fork-join
//      section on the transfer pool, one task per preferred share. A CSP
//      that runs slower than its profile is steered off by the learned
//      rates (AvailabilityMonitor::MedianExcessSeconds), not raced here;
//   2. authenticates each share against its recorded digest *before* it can
//      reach the decoder. Every share fetched ahead that has a recorded
//      digest is hashed in one Sha1::HashMany, a lane per share, so a group
//      of four t = 2 chunks fills the eight lanes; shares downloaded later
//      (top-ups, fallbacks) are hashed as they arrive. A mismatch discards
//      the share, attributes it to the serving CSP, and the chunk tops up
//      from another location, walking every other active location in
//      order until enough shares are in hand;
//   3. decodes each chunk into its caller's buffer and verifies the
//      plaintext exactly once. Shares are a pure function of (chunk, key,
//      index), so t shares matching digests this user recorded decode to
//      the authentic chunk and a clean read takes no hash of the
//      plaintext. Every other read - legacy digestless records,
//      verification off, convergent (dedup) records whose digests may be
//      another writer's, reads that rejected a share, and reads whose
//      plaintext will be written back - requires SHA-1(plaintext) to equal
//      the chunk id, and a mismatch falls back to the error-correcting
//      decode over every reachable share, which also names the corrupt
//      indices;
//   4. heals every share found corrupt by overwriting it in place with
//      freshly encoded bytes from the verified plaintext (uploads are
//      idempotent content-addressed overwrites).
//
// After the shared hash pass, each chunk consumes, decodes and heals on its
// own, concurrently across the group: each keeps its own status and
// result, so one failed chunk fails no other.
//
// Reads touch only thread-safe components (registry, call layer, monitor,
// pools), so they run on pipeline workers and background tasks alike.
// Anything that mutates metadata - lazy migration, digest upgrades,
// chunk-table moves - stays with the caller.
#ifndef SRC_CORE_CHUNK_READER_H_
#define SRC_CORE_CHUNK_READER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/cloud/availability.h"
#include "src/cloud/registry.h"
#include "src/core/transfer.h"
#include "src/meta/chunk_table.h"
#include "src/meta/metadata.h"
#include "src/rs/secret_sharing.h"
#include "src/util/buffer_pool.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace cyrus {

// Dispersal rows are a deterministic prefix for fixed (key, t), so a codec
// built with the maximum n decodes shares produced under any stored n and
// encodes any fresh share index below it.
constexpr uint32_t kMaxShares = 255;

// Everything a reader borrows from the owning client. Raw pointers: the
// client owns the reader and every pointee. `pool` may be null (downloads
// then run sequentially). Every download and heal goes through `calls`,
// which retries, books and health-routes it.
struct ChunkReaderContext {
  CspRegistry* registry = nullptr;
  CspCalls* calls = nullptr;
  AvailabilityMonitor* monitor = nullptr;
  ThreadPool* pool = nullptr;
  BufferPool* buffers = nullptr;
  std::function<double()> now;
  // RS key of one chunk: the user key, or a convergent chunk's unwrapped
  // content key.
  std::function<Result<std::string>(const ChunkRecord&)> chunk_key;
  // Health routing for digest mismatches.
  std::function<void(int csp)> on_integrity_failure;
};

struct ChunkReadOptions {
  // CSPs to read first, in order - normally the download selector's picks.
  // They are fetched concurrently; every other active location is a
  // fallback tried in `locations` order. Empty = one sequential walk.
  std::vector<int> preferred;
  // Audit: download every active location instead of t and verify each
  // share; a clean audit of fully digested shares skips the decode.
  bool all_shares = false;
  // Digest mismatches feed on_integrity_failure (the client's quarantine
  // machinery) when true, only the monitor's integrity ledger when false:
  // the scrub heals at-rest rot in place rather than indicting the CSP.
  bool quarantine = true;
  // Hash the plaintext against the chunk id even when t shares passed
  // their digests: callers that write shares derived from it (migration,
  // repair) set this.
  bool verify_plaintext = false;
  // Overwrite corrupt shares in place. Readahead leaves healing to the
  // foreground gather and the scrub: a background upload could outlive
  // the chunk's deletion and leave an untracked object behind.
  bool heal = true;
};

struct ChunkReadResult {
  size_t shares_downloaded = 0;
  // Every share found corrupt: first the `integrity_rejected` digest
  // mismatches (already attributed), then any indices the error-correcting
  // decode named.
  std::vector<ShareLocation> corrupt;
  size_t integrity_rejected = 0;
  size_t healed = 0;              // corrupt shares overwritten in place
  bool corrected = false;         // the error-correcting decode ran
  bool decoded = false;           // `dst` holds verified plaintext
  uint64_t bytes_moved = 0;       // share bytes downloaded + healed
  TransferReport report;
};

// One chunk of a group read. The caller owns every pointee; ReadGroup
// fills `status` and `*result`.
struct ChunkReadRequest {
  const ChunkRecord* chunk = nullptr;
  const std::vector<ShareLocation>* locations = nullptr;
  ChunkReadOptions options;
  MutableByteSpan dst;  // exactly chunk->size bytes
  ChunkReadResult* result = nullptr;
  Status status = InternalError("not read");
};

class ChunkReader {
 public:
  explicit ChunkReader(ChunkReaderContext context) : context_(std::move(context)) {}

  // Reads `chunk` from `locations` into `dst` (exactly chunk.size bytes).
  // Fails with kIntegrity when fewer than t shares authenticated because
  // some failed their digests or the plaintext fails verification even
  // after error correction, kDataLoss when fewer than t were reachable.
  // `result` is filled on every path, errors included.
  Status Read(const ChunkRecord& chunk, const std::vector<ShareLocation>& locations,
              const ChunkReadOptions& options, MutableByteSpan dst,
              ChunkReadResult& result);

  // Reads every chunk of `group` as Read() does, sharing the download
  // section and the digest pass (steps 1-2 of the header comment). Each
  // request gets Read()'s status and result for its chunk.
  void ReadGroup(std::span<ChunkReadRequest> group);

  // The codec `chunk` was dispersed with.
  Result<SecretSharingCodec> CodecFor(const ChunkRecord& chunk) const;

  // SHA-1 of each share index re-encoded from verified plaintext: exactly
  // what a clean provider stores, hence the authoritative digest set. All
  // indices are encoded first and hashed in one Sha1::HashMany.
  Result<std::vector<ShareDigest>> DeriveDigests(const ChunkRecord& chunk,
                                                 ByteSpan plaintext,
                                                 const std::vector<uint32_t>& indices);

 private:
  struct Download;
  struct Pending;

  // Downloads the share at `loc` into `out`.
  void DownloadShare(const ChunkRecord& chunk, const ShareLocation& loc, Download& out);
  // Steps 2-4 for one chunk whose downloads ahead are in p.fetched.
  Status Finish(const ChunkReadRequest& request, Pending& p);

  ChunkReaderContext context_;
};

// Copies per-share digests from chunk-table rows into a record's
// authentication list (one entry per distinct share index).
void AdoptShareDigests(const std::vector<ChunkShare>& shares, ChunkRecord& record);

// A chunk-table entry in the record form reads take (offset 0).
ChunkRecord RecordFromEntry(const Sha1Digest& chunk_id, const ChunkEntry& entry);

// The inverse: the chunk-table entry of `record` stored as `shares`. A
// share without a digest takes the record's digest for its index.
ChunkEntry EntryFromRecord(const ChunkRecord& record, std::vector<ChunkShare> shares);

}  // namespace cyrus

#endif  // SRC_CORE_CHUNK_READER_H_
