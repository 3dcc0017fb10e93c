// MetadataStore: the one owner of the metadata object format and its I/O
// (paper §5.2, §5.4).
//
// Each file version's metadata is serialized in wire form, wrapped in a
// length-prefixed envelope, and secret-shared with threshold meta_t to
// every active CSP (paper footnote 3). The wire form's ShareMap rows and
// per-share digests are projected from the chunk table, the one owner of
// share layouts, every time a version is published, journaled or exported;
// rows name CSPs by stable connector id, not by this client's registry
// index. Share i of a version is
// stored as "<base>.<i>.<generation>": the base is MetadataName(version id),
// the index must be readable by other clients (confidentiality still needs
// meta_t shares from distinct CSPs plus the user's key), and the generation
// is a content tag of the envelope. A version's metadata is rewritten after
// share migration, scrub repair, rebalancing or CSP removal; a CSP that
// missed such a republish keeps a share of the old plaintext, so readers
// group shares by generation and decode within one, never across.
//
// Changes by other devices are found by looking for new metadata objects:
// a discovery pass lists "meta-" on the C - meta_t + 1 cheapest active CSPs
// (every published base has a share on at least one of them), maps every
// base it has not ingested yet to its generations and their share holders,
// and fetches and decodes those bases from that map alone. It lists the
// remaining CSPs too when the map could decide differently from a full
// listing: a new base shows fewer than meta_t holders in every generation,
// more than one generation, or cannot be fetched from its listed holders.
//
// The store runs on the client's driver thread; it borrows the registry,
// the CSP call layer and the monitor (all thread-safe) from the owning
// client. Every upload, listing, delete and download goes through the call
// layer, which retries it, routes a provider failure into the client's
// health path, and books discovery's downloads like any other.
#ifndef SRC_CORE_METADATA_STORE_H_
#define SRC_CORE_METADATA_STORE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/availability.h"
#include "src/cloud/registry.h"
#include "src/core/transfer.h"
#include "src/meta/chunk_table.h"
#include "src/meta/metadata.h"
#include "src/rs/secret_sharing.h"
#include "src/util/result.h"

namespace cyrus {

// Everything the store borrows from the owning client. Raw pointers: the
// client owns the store and every pointee.
struct MetadataStoreContext {
  CspRegistry* registry = nullptr;
  CspCalls* calls = nullptr;
  AvailabilityMonitor* monitor = nullptr;
  // Where every chunk's shares live and their digests.
  const ChunkTable* chunk_table = nullptr;
  // The user's key: keys the metadata dispersal like it keys chunk data.
  std::string key_string;
  uint32_t meta_t = 2;
  // Minimum virtual-time gap between discovery passes; 0 = every pass
  // runs (CyrusConfig::metadata_sync_interval_s).
  double sync_interval_s = 0.0;
  std::function<double()> now;
};

// One metadata share object, as named at a CSP.
struct MetaShareId {
  std::string base;        // MetadataName(version id)
  uint32_t index = 0;      // secret-sharing share index
  std::string generation;  // content tag of the envelope it belongs to
};

// A version's metadata, secret-shared and tagged.
struct SealedMetadata {
  std::string generation;
  std::vector<Share> shares;
};

class MetadataStore {
 public:
  explicit MetadataStore(MetadataStoreContext context) : context_(std::move(context)) {}

  // --- The object format ---

  static std::string ObjectName(const MetaShareId& id);
  // Parses "<base>.<index>.<generation>"; nullopt for any other name.
  static std::optional<MetaShareId> ParseObjectName(std::string_view object);

  // Envelopes `payload` and secret-shares it into `m` shares under
  // (key, meta_t). The generation is hashed over the padded envelope, which
  // is what a decoder reconstructs, so Open can check a share group decoded
  // cleanly.
  static Result<SealedMetadata> Seal(std::string_view key, uint32_t meta_t, uint32_t m,
                                     ByteSpan payload);
  // Decodes `shares` (at least meta_t, all of one generation) back into the
  // payload. kDataLoss when they do not reconstruct `generation`: the
  // shares are inconsistent, or were made under another key.
  static Result<Bytes> Open(std::string_view key, uint32_t meta_t,
                            const std::vector<Share>& shares, std::string_view generation);

  // --- Wire form ---

  // The metadata of a local version: its ShareMap rows and every
  // ChunkRecord's share digests, t, n and keying are the chunk table's
  // current layout, and rows name CSPs through the csp_directory of stable connector names, so
  // any client can interpret them. A chunk the table no longer tracks
  // (reclaimed by scrub) projects no rows.
  FileVersion ToWireForm(const FileVersion& version) const;
  // The inverse mapping of csp_directory entries to local registry
  // indices; providers this client has no account at map to -1
  // (unreachable, candidates for lazy migration). The rows and digests
  // stay for the caller to move into its chunk table.
  FileVersion ToLocalForm(FileVersion version) const;

  // --- I/O ---

  // Secret-shares `version`'s wire form to every active CSP. Fails when
  // the wire form does not validate (a chunk with fewer than t rows) or
  // fewer than meta_t CSPs took a share. Only a republish of a base this
  // store already knows lists it to delete stale shares: the active set or
  // the plaintext may have changed since, and a reader must not find a
  // share of another index or generation beside the fresh one. A first
  // publish has nothing stale to clean; the put journal rolls back a
  // crashed first attempt.
  Status Publish(const FileVersion& version, TransferReport& report);

  // One discovery pass: lists "meta-" on the C - meta_t + 1 active CSPs
  // with the least expected request time (profile RTT plus learned
  // excess), or on all of them when that listing is not conclusive (see
  // the file comment), and fetches every base not ingested yet from the
  // listing. Returns the versions that decoded (local form, validated);
  // their bases become known. A base that no generation can decode yet is
  // retried by the next pass; one that decodes cleanly but is not a valid
  // version is skipped for good. Passes closer together than
  // sync_interval_s return nothing.
  std::vector<FileVersion> Discover();

  // Bases ingested, published or rejected so far (the local cache's
  // snapshot).
  const std::set<std::string, std::less<>>& known_bases() const { return known_; }
  // Replaces the known bases, and lets the next discovery pass run
  // regardless of the interval.
  void Reset(std::set<std::string, std::less<>> known_bases = {});

 private:
  // generation -> share index -> holding CSP, for one base.
  using Generations = std::map<std::string, std::map<uint32_t, int>>;

  // Decodes one base from the holders the discovery pass listed, trying
  // generations by decreasing share count: the current one is on every
  // reachable CSP, stale ones survive only on stragglers.
  Result<FileVersion> Fetch(const std::string& base, const Generations& generations,
                            TransferReport& report);

  // Active CSPs by expected request time: profile RTT plus the monitor's
  // learned excess, cheapest first.
  std::vector<int> ListingOrder() const;
  // Lists "meta-" on `csp` and adds the holders of every unknown base to
  // `unknown`; false when the CSP could not be listed.
  bool ListInto(int csp, double now, std::map<std::string, Generations>& unknown);

  MetadataStoreContext context_;
  std::set<std::string, std::less<>> known_;  // transparent: looked up by view
  double last_pass_s_ = -1.0;  // virtual time of the last discovery pass
};

}  // namespace cyrus

#endif  // SRC_CORE_METADATA_STORE_H_
