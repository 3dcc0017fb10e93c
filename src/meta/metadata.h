// Per-file-version metadata (paper §5.2, Figure 6).
//
// Every upload creates one immutable metadata object holding the three
// tables of Figure 6:
//   FileMap  - version id (from the content id; see FileVersion), parent
//              version id, creating client, file name, deleted flag,
//              mtime, size;
//   ChunkMap - the chunks composing the file (id, offset, size, t, n);
//   ShareMap - which CSP holds which share index of each chunk.
// Metadata objects are content-addressed: their name at a CSP derives from
// the version id, so concurrent uploaders never clobber each other - they
// create sibling versions, detected later as conflicts.
#ifndef SRC_META_METADATA_H_
#define SRC_META_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/sha1.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

// A zero digest marks "no parent" (prevId = 0 in the paper).
inline bool IsNullDigest(const Sha1Digest& d) {
  for (uint8_t b : d.bytes) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

// Per-share authentication record: SHA-1 of the stored share bytes, keyed
// by share index (share bytes are a pure function of (chunk, key, index),
// so every CSP holding index i stores identical bytes).
struct ShareDigest {
  uint32_t share_index = 0;
  Sha1Digest digest;

  friend bool operator==(const ShareDigest& a, const ShareDigest& b) = default;
};

// ChunkMap row.
struct ChunkRecord {
  Sha1Digest id;       // SHA-1 of chunk content
  uint64_t offset = 0; // position within the file
  uint64_t size = 0;   // chunk byte count
  uint32_t t = 0;      // shares needed to reconstruct
  uint32_t n = 0;      // shares stored
  // Convergent dedup (src/crypto/convergent.h): when set, the chunk was
  // encoded under a content-derived key and `wrapped_key` carries that key
  // XOR-wrapped under this user's key, so any of the user's devices can
  // decode without knowing the deployment salt. Empty/false for chunks
  // encoded under the user key directly (wire format v1 compatible).
  bool dedup = false;
  Bytes wrapped_key;
  // Per-share digests (wire v3): readers authenticate each downloaded share
  // against its entry *before* decode. Empty for legacy v1/v2 metadata -
  // those fall back to the post-decode combinatorial identification path
  // and get upgraded in place on first repair. Like the ShareMap, only the
  // wire form carries them; a client's chunk table holds the live set.
  std::vector<ShareDigest> share_digests;

  // nullptr when no digest is recorded for the index.
  const Sha1Digest* FindShareDigest(uint32_t share_index) const;
  void SetShareDigest(uint32_t share_index, const Sha1Digest& digest);
};

// ShareMap row.
//
// In memory, `csp` is the *local* registry index of the provider holding
// the share (-1 when the provider is unknown to this client). Registry
// indices are client-local, so on the wire each metadata object carries a
// `csp_directory` of stable connector ids and `csp` indexes into it;
// MetadataStore builds the rows from the chunk table and translates in
// both directions (src/core/metadata_store.h).
struct ShareLocation {
  Sha1Digest chunk_id;
  uint32_t share_index = 0;
  int32_t csp = -1;
};

// One node of the metadata tree (FileMap row + its two tables).
//
// The paper keys FileMap rows by the SHA-1 of the file content alone; that
// collides when identical content is stored under two names (or re-created
// after deletion), so this implementation derives `id` from (content id,
// parent, name) and keeps the content id in `content_id` for the unchanged
// check and sync. The content id is a hash of the chunk list, not of the
// bytes (ComputeContentId, src/chunker/chunker.h), so Put never hashes the
// file a second time.
struct FileVersion {
  Sha1Digest id;          // unique version id (content x parent x name)
  Sha1Digest content_id;  // ComputeContentId of the chunks
  Sha1Digest prev_id;     // parent version; null digest for new files
  std::string client_id;
  std::string file_name;
  bool deleted = false;
  double modified_time = 0.0;
  uint64_t size = 0;
  std::vector<ChunkRecord> chunks;
  // The ShareMap. Filled in wire form only: versions in a client's
  // VersionTree leave it (and every share_digests list) empty, because the
  // chunk table owns share layouts.
  std::vector<ShareLocation> shares;
  // Stable connector ids naming the CSPs that `shares[].csp` refers to in
  // *serialized* metadata (entry k names csp value k). Local in-memory
  // versions leave it empty and use registry indices directly.
  std::vector<std::string> csp_directory;

  // Binary encoding (versioned; see serialize.h for the wire format).
  Bytes Serialize() const;
  static Result<FileVersion> Deserialize(ByteSpan data);

  // Share locations for one chunk, in share-index order.
  std::vector<ShareLocation> SharesOfChunk(const Sha1Digest& chunk_id) const;

  // Internal consistency of a wire-form version: every chunk has >= t
  // shares listed, chunk offsets tile [0, size), and t <= n for every
  // chunk.
  Status Validate() const;
};

// Derives the unique version id for a (content, parent, name) triple.
Sha1Digest ComputeVersionId(const Sha1Digest& content_id, const Sha1Digest& prev_id,
                            std::string_view file_name);

}  // namespace cyrus

#endif  // SRC_META_METADATA_H_
