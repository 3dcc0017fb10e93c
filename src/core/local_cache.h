// Local metadata cache (paper §5.2: "Clients maintain local copies of the
// metadata tree for efficiency and periodically sync with the metadata
// stored at the CSPs").
//
// Serializes a client's synced state - version tree, global chunk table,
// and the set of already-ingested metadata object names - to one local
// file. A restarting client loads the cache and then runs an ordinary
// incremental SyncMetadata() instead of a full Recover(), turning startup
// from O(all metadata) downloads into O(new metadata). The cache is a pure
// optimization: deleting it is always safe (recover() rebuilds from the
// clouds), and it is keyed to the key string so a cache cannot be loaded
// into the wrong CYRUS cloud.
#ifndef SRC_CORE_LOCAL_CACHE_H_
#define SRC_CORE_LOCAL_CACHE_H_

#include <filesystem>
#include <functional>
#include <set>
#include <string>

#include "src/meta/chunk_table.h"
#include "src/meta/version_tree.h"
#include "src/util/result.h"

namespace cyrus {

struct LocalCacheSnapshot {
  std::vector<FileVersion> versions;
  ChunkTable chunk_table;
  std::set<std::string, std::less<>> known_meta_bases;
};

// Encodes a snapshot. `key_fingerprint` ties the cache to one CYRUS cloud
// (use Sha1::Hash(key_string)); Decode rejects a mismatched fingerprint.
Bytes EncodeLocalCache(const LocalCacheSnapshot& snapshot,
                       const Sha1Digest& key_fingerprint);
Result<LocalCacheSnapshot> DecodeLocalCache(ByteSpan data,
                                            const Sha1Digest& key_fingerprint);

// File helpers. SaveLocalCache replaces the file through
// ReplaceFileAtomically (src/util/record_log.h: tmp write, fsync, rename,
// parent-dir fsync), so a crash leaves the old cache or the new one, and
// any failed write step returns kUnavailable.
Status SaveLocalCache(const std::filesystem::path& path,
                      const LocalCacheSnapshot& snapshot,
                      const Sha1Digest& key_fingerprint);
Result<LocalCacheSnapshot> LoadLocalCache(const std::filesystem::path& path,
                                          const Sha1Digest& key_fingerprint);

}  // namespace cyrus

#endif  // SRC_CORE_LOCAL_CACHE_H_
