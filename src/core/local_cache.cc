#include "src/core/local_cache.h"

#include <algorithm>
#include <fstream>

#include "src/crypto/sha1.h"

#include "src/meta/serialize.h"
#include "src/util/record_log.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr uint32_t kMagic = 0x43594c43;  // "CYLC"
constexpr uint32_t kFormatVersion = 2;   // v2: trailing SHA-1 checksum
constexpr size_t kChecksumBytes = 20;

}  // namespace

Bytes EncodeLocalCache(const LocalCacheSnapshot& snapshot,
                       const Sha1Digest& key_fingerprint) {
  BinaryWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteDigest(key_fingerprint);
  w.WriteU32(static_cast<uint32_t>(snapshot.versions.size()));
  for (const FileVersion& version : snapshot.versions) {
    w.WriteBytes(version.Serialize());
  }
  w.WriteBytes(snapshot.chunk_table.Serialize());
  w.WriteU32(static_cast<uint32_t>(snapshot.known_meta_bases.size()));
  for (const std::string& base : snapshot.known_meta_bases) {
    w.WriteString(base);
  }
  Bytes data = w.TakeData();
  // Trailing whole-payload checksum: length-prefix parsing alone misses a
  // bit flip inside a serialized blob, and a client that trusts a silently
  // corrupted cache serves wrong metadata until the next full sync. Any
  // corruption now fails the load, and the caller falls back to Recover().
  const Sha1Digest checksum = Sha1::Hash(ByteSpan(data));
  data.insert(data.end(), checksum.bytes.begin(), checksum.bytes.end());
  return data;
}

Result<LocalCacheSnapshot> DecodeLocalCache(ByteSpan data,
                                            const Sha1Digest& key_fingerprint) {
  if (data.size() < kChecksumBytes) {
    return DataLossError("local cache shorter than its checksum");
  }
  const ByteSpan payload = data.first(data.size() - kChecksumBytes);
  const ByteSpan trailer = data.last(kChecksumBytes);
  const Sha1Digest checksum = Sha1::Hash(payload);
  if (!std::equal(trailer.begin(), trailer.end(), checksum.bytes.begin())) {
    return DataLossError("local cache checksum mismatch (truncated or corrupted)");
  }
  BinaryReader r(payload);
  CYRUS_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return DataLossError("local cache magic mismatch");
  }
  CYRUS_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kFormatVersion) {
    return DataLossError(StrCat("unsupported local cache version ", version));
  }
  CYRUS_ASSIGN_OR_RETURN(Sha1Digest fingerprint, r.ReadDigest());
  if (fingerprint != key_fingerprint) {
    return FailedPreconditionError("local cache belongs to a different CYRUS cloud");
  }
  LocalCacheSnapshot snapshot;
  CYRUS_ASSIGN_OR_RETURN(uint32_t num_versions, r.ReadU32());
  snapshot.versions.reserve(num_versions);
  for (uint32_t i = 0; i < num_versions; ++i) {
    CYRUS_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
    CYRUS_ASSIGN_OR_RETURN(FileVersion v, FileVersion::Deserialize(blob));
    snapshot.versions.push_back(std::move(v));
  }
  CYRUS_ASSIGN_OR_RETURN(Bytes table_blob, r.ReadBytes());
  CYRUS_ASSIGN_OR_RETURN(snapshot.chunk_table, ChunkTable::Deserialize(table_blob));
  CYRUS_ASSIGN_OR_RETURN(uint32_t num_bases, r.ReadU32());
  for (uint32_t i = 0; i < num_bases; ++i) {
    CYRUS_ASSIGN_OR_RETURN(std::string base, r.ReadString());
    snapshot.known_meta_bases.insert(std::move(base));
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes after local cache");
  }
  return snapshot;
}

Status SaveLocalCache(const std::filesystem::path& path,
                      const LocalCacheSnapshot& snapshot,
                      const Sha1Digest& key_fingerprint) {
  return ReplaceFileAtomically(path.string(), EncodeLocalCache(snapshot, key_fingerprint));
}

Result<LocalCacheSnapshot> LoadLocalCache(const std::filesystem::path& path,
                                          const Sha1Digest& key_fingerprint) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError(StrCat("no local cache at ", path.string()));
  }
  Bytes data((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  return DecodeLocalCache(data, key_fingerprint);
}

}  // namespace cyrus
