// CyrusClient: the public facade implementing the paper's API (Table 3).
//
//   s = create()      -> CyrusClient::Create(config)
//   add(s, c)         -> AddCsp()
//   remove(s, c)      -> RemoveCsp()
//   put(s, f)         -> Put()
//   f' = get(s, f, v) -> Get() / GetVersion()
//   delete(s, f)      -> Delete()
//   list(s, d)        -> List()
//   s' = recover(s)   -> Recover()
//
// The client owns all CYRUS mechanics: content-defined chunking,
// deduplication against the global chunk table, keyed non-systematic
// Reed-Solomon secret sharing, reliability parameter selection (Eq. 1),
// consistent-hash share placement (optionally cluster-aware), optimized
// downlink CSP selection (Algorithm 1), metadata scattering, distributed
// conflict detection, versioning/undelete, and lazy share migration after
// CSP failure or removal. It talks to providers exclusively through the
// five-call CloudConnector interface.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/chunker/chunker.h"
#include "src/cloud/availability.h"
#include "src/cloud/registry.h"
#include "src/crypto/convergent.h"
#include "src/dedup/share_index.h"
#include "src/core/chunk_cache.h"
#include "src/core/chunk_reader.h"
#include "src/core/chunk_writer.h"
#include "src/core/hash_ring.h"
#include "src/core/local_cache.h"
#include "src/core/metadata_store.h"
#include "src/core/put_journal.h"
#include "src/core/transfer.h"
#include "src/meta/chunk_table.h"
#include "src/meta/version_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/opt/download_selector.h"
#include "src/repair/repair_engine.h"
#include "src/rs/secret_sharing.h"
#include "src/util/buffer_pool.h"
#include "src/util/result.h"
#include "src/util/retry.h"
#include "src/util/thread_pool.h"

namespace cyrus {

// How Put keys the dispersal of new chunks.
//   kOff        - the user key keys every chunk (the paper's behavior):
//                 maximal privacy, zero cross-user dedup.
//   kConvergent - chunks are keyed by their own content hash (salted; see
//                 src/crypto/convergent.h), so identical chunks across
//                 users yield identical shares, the shared ShareIndex
//                 dedupes them at the CSPs, and Delete/overwrite drop
//                 refcounts the scrub engine GCs.
enum class DedupMode { kOff, kConvergent };

struct CyrusConfig {
  // The user's secret: keys the RS dispersal matrix (privacy, §7.1).
  std::string key_string = "cyrus-default-key";
  // Identifies this device/user in FileMap rows.
  std::string client_id = "client";

  // Privacy parameter: shares (and thus CSPs) needed to reconstruct data.
  uint32_t t = 2;
  // Reliability budget epsilon for Eq. (1).
  double epsilon = 1e-6;
  // Per-CSP failure probability assumed when the availability monitor has
  // no observations yet.
  double default_failure_prob = 0.01;

  // Metadata secret-sharing threshold; metadata shares go to *all* active
  // CSPs (paper footnote 3).
  uint32_t meta_t = 2;

  // Minimum virtual-time gap (seconds, per set_time) between full metadata
  // sync passes. Every Get/List re-lists all metadata objects on every
  // active CSP to pick up writes from other devices - O(total versions)
  // per call. A sole-writer deployment (e.g. a gateway shard worker that
  // owns its CSP pool) can throttle that discovery scan since no foreign
  // writes can appear. 0 (the default) keeps the always-sync behavior;
  // Recover() and ImportCache() always force the next pass regardless.
  double metadata_sync_interval_s = 0.0;

  // Place at most one share of a chunk per platform cluster (§4.1).
  bool cluster_aware = true;

  // Content-defined chunking parameters (default: 4 MB average, like
  // Dropbox; tests shrink these).
  ChunkerOptions chunker;

  // Concurrent connector calls per scatter/gather phase (the prototype's
  // dedicated transfer threads, paper §5.3). 1 = fully synchronous.
  uint32_t transfer_concurrency = 4;

  // Pipelined transfer engine (§5.3, Figure 15): how many chunks may be in
  // flight at once between the chunk/encode stage and share-transfer
  // completion. Chunk i+1 is hashed, encoded, and uploading while chunk
  // i's shares are still in transit, so one slow CSP no longer stalls the
  // whole file. A Get admits its chunks in groups of
  // min(kSha1Lanes / t, window) - 4 at t = 2 - whose shares are verified
  // in one multi-lane SHA-1 pass, and window / group-size groups at a
  // time, so the window still caps the chunks in flight. 1 degrades to
  // strictly sequential chunk handling (the pre-pipeline behavior). Must
  // be >= 1. Memory held by in-flight share buffers is O(window), not
  // O(file).
  uint32_t pipeline_window_chunks = 4;

  // Transient-failure retry for every CSP call: share and metadata
  // transfers, listings (scrub probes included) and deletes (capped
  // exponential backoff + jitter). max_attempts = 1 disables retries.
  RetryOptions transfer_retry;

  // Knobs for the proactive scrub & repair engine (bandwidth budget,
  // per-pass repair cap).
  RepairEngineOptions repair;

  // Quorum writes: a chunk commits once max(t, n - put_failure_budget)
  // shares are durable. The shortfall is recorded as degraded-write debt
  // (cyrus_degraded_* gauges) and completed by the next scrub pass. The
  // default of -1 keeps the legacy bar - commit at >= t, maximum write
  // availability - while still booking the debt.
  int32_t put_failure_budget = -1;

  // Crash-safe Put: path of the local write-intent journal. Empty (the
  // default) disables journaling; RecoverFromJournal() is then a no-op.
  std::string journal_path;

  // Cross-user convergent dedup (src/dedup). kConvergent requires a
  // non-empty dedup_salt (the deployment-wide dictionary-attack guard) and
  // normally a share_index; without an index the client still encodes
  // convergently (its own chunk table dedupes) but cannot share chunks
  // with other clients. The index is borrowed, never owned: a gateway
  // points every shard worker at one index, and all of them must register
  // the same connectors in the same order (share locations are registry
  // indices). Reads stay mode-independent - a chunk's metadata records how
  // it was keyed - so flipping the mode never strands old data.
  DedupMode dedup_mode = DedupMode::kOff;
  std::string dedup_salt;
  ShareIndex* share_index = nullptr;

  // Decoded-chunk plaintext cache backing GetRange (src/core/chunk_cache.h):
  // a byte-budgeted sharded ARC keyed by chunk id. Range reads populate it;
  // whole-file Gets consult it for hits (and duplicate fills) but do not
  // populate it, so one large download cannot flush a streaming working
  // set. 0 disables caching entirely.
  uint64_t chunk_cache_bytes = 64ull << 20;

  // Sequential-read detector: when consecutive GetRange calls are
  // contiguous, prefetch the chunks just past the reader into the chunk
  // cache on background-priority pool tasks. The window starts at the
  // reader and covers as many bytes as the sequential run has read so far,
  // at least one chunk and at most this many. A seek resets the run and
  // cancels (credits) prefetches not yet started. 0 disables readahead.
  uint32_t readahead_chunks = 4;

  // Observability sinks. Pipeline counters/histograms go to `metrics`;
  // each Put/Get/ScrubOnce also records a stage timeline (chunking ->
  // encode -> place -> upload -> metadata publish) into `traces`. nullptr
  // selects the process-wide defaults; both are cheap enough to leave on.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* traces = nullptr;
};

struct FileListing {
  std::string name;
  uint64_t size = 0;
  double modified_time = 0.0;
  size_t num_versions = 0;
  bool conflicted = false;
};

struct PutResult {
  Sha1Digest version_id;
  Sha1Digest content_id;     // ComputeContentId of the chunks, set on every path
  uint32_t n = 0;            // shares stored for each newly scattered chunk
  size_t total_chunks = 0;
  size_t new_chunks = 0;
  size_t dedup_chunks = 0;   // chunks served without upload (local or index)
  size_t index_hit_chunks = 0;  // of those, served by the cross-user ShareIndex
  uint64_t content_bytes = 0;
  uint64_t uploaded_share_bytes = 0;
  bool unchanged = false;    // content identical to the current head
  size_t adopted_chunks = 0;  // taken from the replaced version without a Rabin cut
  size_t degraded_chunks = 0;  // committed at quorum but short of target n
  size_t missing_shares = 0;   // shares owed to the background repair queue
  TransferReport transfer;
};

struct GetResult {
  Bytes content;
  Sha1Digest version_id;
  bool had_conflicts = false;
  std::vector<Conflict> conflicts;
  size_t migrated_shares = 0;  // lazily repaired share locations (§5.5)
  // Full size of the version read (== content.size() for whole-file Gets;
  // the Content-Range total for range reads).
  uint64_t file_size = 0;
  // First byte offset this result covers (0 for whole-file Gets).
  uint64_t range_offset = 0;
  // Covering chunks served from the decoded-chunk cache vs downloaded and
  // decoded from the CSPs.
  size_t chunks_from_cache = 0;
  size_t chunks_decoded = 0;
  // Legacy (pre-digest) chunk records whose per-share digests were derived
  // during this read - via the combinatorial decode path - and recorded in
  // the chunk table and republished metadata.
  size_t digest_upgraded_chunks = 0;
  // Shares rejected before decode because their bytes failed digest
  // authentication (each also feeds the owning CSP's health accounting).
  size_t integrity_rejected_shares = 0;
  TransferReport transfer;
};

// What RecoverFromJournal() did with the write-intent journal.
struct JournalRecoveryReport {
  size_t intents_seen = 0;
  size_t rolled_forward = 0;        // shares were durable: metadata republished
  size_t rolled_back = 0;           // incomplete Put abandoned
  size_t orphan_shares_deleted = 0; // unreferenced journaled objects removed
};

class CyrusClient {
 public:
  static Result<std::unique_ptr<CyrusClient>> Create(CyrusConfig config);

  // --- CSP account management ---

  // Registers a CSP account, authenticates, and adds it to the placement
  // ring. Returns the CSP's registry index.
  Result<int> AddCsp(std::shared_ptr<CloudConnector> connector, CspProfile profile,
                     const Credentials& credentials);

  // User-initiated removal: metadata is re-scattered to the remaining CSPs
  // immediately; chunk shares migrate lazily on subsequent downloads.
  Status RemoveCsp(int csp);

  // The one CSP health path (paper §5.5). MarkCspFailed takes a CSP out
  // of placement and download selection; transfers call it for a health
  // failure that survived retries, and the integrity quarantine for a
  // repeat liar. MarkCspRecovered is the only way back in: it re-admits
  // the CSP and flags it for the next scrub's reprobe. Both are no-ops
  // from any other state.
  Status MarkCspFailed(int csp);
  Status MarkCspRecovered(int csp);

  // Installs platform cluster ids (output of src/net/clustering.h), one per
  // registry index, and rebuilds the placement ring.
  Status AssignClusters(const std::vector<int>& cluster_per_csp);

  // --- File operations (Table 3) ---

  Result<PutResult> Put(std::string_view name, ByteSpan content);
  Result<GetResult> Get(std::string_view name);
  Result<GetResult> GetVersion(std::string_view name, const Sha1Digest& version_id);

  // Range read: bytes [offset, offset+len) of the newest live head. Only
  // the covering chunks are fetched and decoded (cache hits skip the CSPs
  // entirely); `len` is clamped to the end of the file, and an offset past
  // the end fails with InvalidArgument (the REST layer's 416). Contiguous
  // GetRange calls on one name are detected as a sequential stream and
  // trigger background readahead of the chunks just past the read, a
  // window that grows with the sequential run up to
  // config.readahead_chunks; any seek cancels prefetches not yet started,
  // and Delete cancels the name's.
  Result<GetResult> GetRange(std::string_view name, uint64_t offset,
                             uint64_t len);
  Status Delete(std::string_view name);
  Result<std::vector<FileListing>> List(std::string_view directory_prefix);

  // Version history of the file's newest head (newest first). Works for
  // deleted files too, enabling undelete via GetVersion (paper §5.4). Like
  // tree(), the versions carry no share rows; see chunk_table().
  Result<std::vector<const FileVersion*>> Versions(std::string_view name);

  // Imports a file the user already stores in plaintext at one provider
  // into CYRUS (the most-requested extension from the paper's user trial,
  // §7.5): downloads the object through the connector, stores it under
  // `target_name` with full chunking/coding/scattering, and optionally
  // deletes the plaintext original.
  Result<PutResult> ImportForeignObject(int csp, std::string_view object_name,
                                        std::string_view target_name,
                                        bool delete_original = false);

  // Re-scatters every metadata object over the *current* active CSP set
  // (a version with a chunk that scrub reclaimed keeps its last one).
  // Useful after AddCsp when the user wants newly added accounts to raise
  // metadata reliability immediately (paper §5.5: "shares of the file
  // metadata can be stored at the new CSP ... if the user wishes").
  Status RebalanceMetadata();

  // --- Proactive scrub & repair (background complement to §5.5) ---

  // One scrub pass: probes share health at every active CSP (one List
  // each), repairs degraded chunks worst-first within the configured
  // bandwidth budget, then republishes the metadata of every version that
  // references a repaired chunk, so other clients find the new shares. Run
  // this periodically; lazy migration still covers whatever a pass defers.
  Result<ScrubReport> ScrubOnce();

  // Health of every tracked chunk, degraded first, without repairing.
  std::vector<ChunkHealth> ScrubScan();

  RepairEngine& repair_engine() { return *repair_; }
  const RepairStats& repair_stats() const { return repair_->stats(); }

  // CSPs whose shares await re-verification because they returned from an
  // outage that may have lost objects (see MarkCspRecovered); cleared by
  // the next ScrubOnce.
  std::vector<int> csps_pending_reprobe() const { return repair_->pending_reprobe(); }

  // --- Crash recovery (write-intent journal) ---

  // Replays pending write intents from the journal (config.journal_path).
  // Call after registering CSP accounts: an intent whose metadata record
  // exists is rolled *forward* (its shares are already durable, so the
  // version is re-inserted and its metadata republished); one without is
  // rolled *back* (every journaled share object that no committed chunk
  // references is deleted from its CSP). Safe to call when no journal is
  // configured or nothing is pending.
  Result<JournalRecoveryReport> RecoverFromJournal();

  // --- Multi-client synchronization ---

  // Pulls metadata objects this client has not seen and returns the
  // conflicts the new versions introduce (paper §5.4).
  Result<std::vector<Conflict>> SyncMetadata();

  // Rebuilds the whole local state (version tree + chunk table) from the
  // clouds; what a freshly installed device runs (Table 3's recover()).
  Status Recover();

  // --- Local metadata cache (paper §5.2) ---

  // Snapshot of the synced state (version tree in portable wire form,
  // which carries the chunk table's layouts, and ingested metadata names)
  // for SaveLocalCache(). Versions
  // with a chunk scrub reclaimed are left out, as RepublishVersions skips
  // them.
  LocalCacheSnapshot ExportCache() const;

  // Installs a snapshot saved earlier, replacing local state and
  // rebuilding the chunk table from its versions; callers then
  // run SyncMetadata() to pick up anything newer than the snapshot. Share
  // locations are remapped by stable connector name, so the CSP
  // registration order may differ from the saving session's.
  Status ImportCache(const LocalCacheSnapshot& snapshot);

  // Resolves a conflicted name: `winner` stays as `name`; every other
  // conflicting live head is renamed to "<name>.conflict-<shortid>" so no
  // update is silently lost.
  Status ResolveConflict(std::string_view name, const Sha1Digest& winner);

  // --- Introspection (benchmarks, tests, UI) ---

  // Versions here and from Versions() carry no ShareMap rows or share
  // digests: chunk_table() holds every chunk's share locations and digests.
  const VersionTree& tree() const { return tree_; }
  const ChunkTable& chunk_table() const { return chunk_table_; }
  const CspRegistry& registry() const { return registry_; }
  AvailabilityMonitor& availability_monitor() { return monitor_; }
  const CyrusConfig& config() const { return config_; }

  // The sinks this client records into (resolved from the config's
  // nullable pointers).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::TraceCollector& traces() { return *traces_; }

  // Solves Eq. (1) for the current CSP set; the n a Put would use.
  Result<uint32_t> CurrentN() const;

  // Shares a chunk must have durable before Put commits it: t when the
  // failure budget is unset (-1), max(t, n - budget) otherwise.
  uint32_t PutQuorum(uint32_t n) const;

  // The write-intent journal (null unless config.journal_path is set).
  const PutJournal* journal() const { return journal_.get(); }

  // Replaces the downlink selector (benchmarks swap in random/round-robin).
  void set_download_selector(std::unique_ptr<DownloadSelector> selector);

  // Runtime override of config.pipeline_window_chunks, read at the start of
  // each Put/Get. The gateway's backpressure controller shrinks a shard
  // worker's window when its queue deepens and restores it as load drains.
  // 0 restores the configured value; anything else is clamped to >= 1.
  // Thread-safe (atomic); in-flight pipelines keep the window they started
  // with.
  void set_pipeline_window(uint32_t chunks) {
    pipeline_window_override_.store(chunks, std::memory_order_relaxed);
  }
  // The window the next Put/Get will use.
  uint32_t pipeline_window() const {
    const uint32_t forced = pipeline_window_override_.load(std::memory_order_relaxed);
    return forced > 0 ? forced : config_.pipeline_window_chunks;
  }

  // Virtual clock for modified times and availability probes. Atomic:
  // reader, writer and repair-engine `now` callbacks read it from pool
  // threads while tests advance it on the driver.
  void set_time(double now) { now_.store(now, std::memory_order_relaxed); }
  double now() const { return now_.load(std::memory_order_relaxed); }

  // The decoded-chunk plaintext cache behind GetRange (tests, benches).
  ChunkCache& chunk_cache() { return chunk_cache_; }

  // Blocks until every issued readahead prefetch has finished (stored,
  // failed, or self-cancelled). Benches and tests use it to separate
  // cache warm-up from measurement; production callers never need it.
  void WaitForReadahead();

  struct ReadaheadStats {
    uint64_t issued = 0;     // prefetch tasks handed to the pool
    uint64_t completed = 0;  // decoded, verified, and cached
    uint64_t cancelled = 0;  // credited back: a seek staled the stream, a
                             // foreground read claimed it, or it failed
  };
  ReadaheadStats readahead_stats() const;

 private:
  explicit CyrusClient(CyrusConfig config, Chunker chunker);

  // The codec a convergent chunk disperses under (keyed by its own
  // content), plus this user's wrap of that key into `wrapped_key`. Fails
  // without the deployment salt: the key would not be the one other users
  // derive, and shares published under it would be undecodable to them.
  // Safe on pipeline workers.
  Result<SecretSharingCodec> ConvergentCodec(const Sha1Digest& chunk_id, uint32_t n,
                                             Bytes& wrapped_key);

  // Records a freshly scattered chunk: publishes a convergent layout to the
  // ShareIndex (refcount 1), inserts its chunk-table entry - or, with
  // `replace`, replaces a dedup entry whose objects another shard's scrub
  // reclaimed - and books the shares short of n as degraded-write debt.
  // Driver-thread only.
  Status RecordScatteredChunk(const Sha1Digest& chunk_id, uint64_t size, uint32_t n,
                              bool convergent, Bytes wrapped_key,
                              std::vector<ChunkShare> shares, bool replace,
                              PutResult& result);

  // The one scheduler behind GetRange and whole-file Get/GetVersion:
  // assembles bytes [offset, offset+len) of `version_id` from cache hits
  // plus pipelined gathers of the covering chunks. `whole_file` selects the
  // zero-copy decode-into-result layout (which never populates the cache)
  // instead of per-chunk cache-owned buffers.
  Result<GetResult> GetRangeTraced(std::string_view name,
                                   const Sha1Digest& version_id,
                                   uint64_t offset, uint64_t len,
                                   bool whole_file, obs::TraceBuilder& trace);

  // Sequential-stream detection and prefetch scheduling after a GetRange
  // of [offset, offset+len) on `version`. Driver thread only.
  void MaybeScheduleReadahead(const std::string& name,
                              const FileVersion& version, uint64_t offset,
                              uint64_t len);

  // Foreground side of the readahead join, for a chunk the cache missed.
  // Returns the prefetch to AwaitPrefetch when one is downloading it.
  // Returns null when none is, after claiming a still-queued one: the
  // caller then fetches the chunk itself.
  struct Prefetch;
  std::shared_ptr<Prefetch> JoinPrefetch(const Sha1Digest& id);
  // Blocks until `prefetch` finishes. Returns its plaintext, or null when
  // it failed or went stale.
  std::shared_ptr<const Bytes> AwaitPrefetch(const Prefetch& prefetch);

  // Drops released chunks from the decoded-chunk cache. `kept` (nullable)
  // lists chunks still referenced by the superseding version - an
  // overwrite with unchanged chunks must not cold-start its readers.
  void InvalidateCachedChunks(const std::vector<ChunkRecord>& released,
                              const std::vector<ChunkRecord>* kept);

  // One covering chunk of a pipelined gather (defined in client.cc).
  struct GatherSlot;

  // Reads a group of chunks through one ChunkReader::ReadGroup straight
  // into each slot's dst, then runs FinishGather on every slot whose read
  // succeeded; each slot gets its own status. Runs on a pipeline worker:
  // the driver resolves slot.locations beforehand and republishes the
  // affected metadata afterwards.
  void GatherGroup(const std::vector<GatherSlot*>& group);

  // The per-chunk bookkeeping after a successful read: lazily migrates
  // shares off failed/removed CSPs through the ChunkWriter (the chunk
  // table records the new shares with their digests), and, when the read
  // healed or corrected shares or the record predates digests, derives
  // the authoritative digest set into slot.upgraded.
  Status FinishGather(GatherSlot& slot);

  // Algorithm 1's achievable bandwidth for `csp` on shares of
  // `share_bytes`: S / (S / profile rate + e), where e is the CSP's median
  // excess per request. Exactly the profile rate while e is 0; 0 for an
  // unknown CSP.
  double LearnedDownloadRate(int csp, double share_bytes) const;

  // Routes a share-digest mismatch into the health path: the availability
  // monitor's integrity ledger records it, and the CSP is marked failed
  // once its ledger reaches kIntegrityQuarantineThreshold (3). Safe
  // from pipeline workers (same locking as MarkCspFailed).
  Status NoteIntegrityFailure(int csp);

  // Copies the chunk table's share digests into a copy of a version's
  // ChunkRecord, so gather workers can authenticate without reading the
  // mutable chunk table. Driver-thread only.
  void AugmentRecordDigests(ChunkRecord& record) const;

  // Current share locations of a chunk, from the chunk table; none for a
  // chunk it no longer tracks. Driver-thread only.
  std::vector<ShareLocation> ResolveChunkLocations(const Sha1Digest& chunk_id) const;

  // True when the chunk table still tracks every chunk of `version`: scrub
  // reclaims the chunks of superseded versions, whose layouts are then
  // gone, so neither a republish nor a snapshot can carry them.
  bool AllChunksTracked(const FileVersion& version) const;

  // Republishes every version that references one of `chunk_ids` (every
  // version when null), skipping those with a chunk the table no longer
  // tracks. Driver-thread only.
  Status RepublishVersions(const std::set<Sha1Digest>* chunk_ids, TransferReport& report);

  // Picks this Put's parent version for `name` (the newest head, deleted
  // or not), or a null digest for new files.
  Sha1Digest ParentFor(std::string_view name) const;

  // The chunks of `parent` that Put's planner may adopt: all of them when
  // this client object Put `parent` as `name` (so chunker_ cut them), none
  // otherwise.
  std::vector<PlannedChunk> AdoptableChunks(std::string_view name,
                                            const Sha1Digest& parent) const;

  // The one ingest step for a version about to enter the tree: takes a
  // reference on each distinct chunk and moves the version's ShareMap rows
  // and share digests into the chunk table, leaving `version` without
  // them. A chunk the table already tracks keeps its layout; an incoming
  // digest only fills a tracked share that has none.
  Status RegisterVersionChunks(FileVersion& version);

  // Drops one reference per unique chunk, locally and (for convergent
  // chunks) in the shared ShareIndex. Run after a version stops being a
  // live head (Delete, or an overwrite superseding its parent). Unknown
  // chunks and already-zero entries are skipped: the refs were never
  // taken, or another device raced the release (clamped and counted by
  // the index).
  void ReleaseChunkRefs(const std::vector<ChunkRecord>& chunks);

  // True when Put keys new chunks convergently.
  bool convergent_writes() const {
    return config_.dedup_mode == DedupMode::kConvergent;
  }

  CyrusConfig config_;
  // Two-stage convergent keying (content key from config_.dedup_salt, wrap
  // under config_.key_string). Constructed unconditionally: reads of
  // synced convergent chunks need the unwrap half even in kOff mode.
  ConvergentKeyDeriver deriver_;
  Chunker chunker_;
  // Per name, the version this client object last Put: the only parents
  // chunker_ is known to have cut, since options may differ across
  // restarts and clients. One entry per name; Delete erases it, and
  // ImportCache and Recover clear it.
  std::map<std::string, Sha1Digest, std::less<>> put_heads_;
  CspRegistry registry_;
  HashRing ring_;
  VersionTree tree_;
  ChunkTable chunk_table_;
  AvailabilityMonitor monitor_;
  // Serializes topology read-modify-write sequences (MarkCspFailed's
  // state-check + SetState + ring removal, and its recovery twin) against
  // each other. Individual registry/ring/monitor calls are already atomic;
  // this lock makes the *sequences* atomic so two pipeline workers cannot
  // both observe kActive and both try to remove the same ring node. Lock
  // order: topology_mutex_ before any component-internal mutex; never held
  // across a connector call.
  std::mutex topology_mutex_;
  // Reusable aligned share/upload buffers for the codec paths. Declared
  // before pool_ so the worker threads (whose scatter / repair
  // frames hold PooledBuffer handles) join before the pool dies.
  BufferPool codec_buffers_;
  // Decoded-chunk plaintext cache (GetRange hits skip the CSPs entirely).
  // Declared before pool_ for the same reason as codec_buffers_: the pool
  // destructor *drains* queued readahead tasks, and those insert here.
  ChunkCache chunk_cache_;
  // --- Sequential-read detector / readahead state. Guarded by
  // readahead_mutex_; declared before pool_ (prefetch tasks drained at
  // pool destruction read it). ---
  struct StreamState {
    uint64_t next_offset = 0;  // where a contiguous reader resumes
    uint64_t run_bytes = 0;    // read contiguously since the last seek
    uint64_t generation = 0;   // renewed on seek; stale prefetches cancel
  };
  // One issued prefetch, shared by its pool task and any foreground read
  // of the same chunk. A foreground cache miss waits for a started
  // prefetch rather than downloading the chunk a second time, and claims a
  // queued one (the task then skips it), so it never waits on a task that
  // may need its own thread to run.
  struct Prefetch {
    bool started = false;  // a pool thread is downloading it
    bool claimed = false;  // a foreground read fetches it instead
    bool done = false;
    std::shared_ptr<const Bytes> plaintext;  // set when the read succeeded
  };
  mutable std::mutex readahead_mutex_;
  std::map<std::string, StreamState, std::less<>> streams_;  // Delete erases
  uint64_t last_stream_generation_ = 0;  // generations are never reused
  // Queued or downloading; a claimed or finished prefetch leaves the map.
  std::map<Sha1Digest, std::shared_ptr<Prefetch>> readahead_inflight_;
  size_t readahead_active_ = 0;
  std::condition_variable readahead_idle_;
  std::condition_variable readahead_landed_;  // some started prefetch finished
  // The one path to the CSPs: every connector call after AddCsp's
  // Authenticate is retried and health-routed here (a call that still
  // indicts its provider marks the CSP failed), and every upload and
  // download is booked. Declared before pool_: queued readahead tasks
  // download through it.
  std::unique_ptr<CspCalls> calls_;
  // The one chunk read path: Get/GetRange gathers, readahead, and the
  // repair engine's rebuild and integrity sweep all read through it.
  // Declared before pool_: the pool destructor drains queued readahead
  // tasks, which read through it.
  std::unique_ptr<ChunkReader> reader_;
  // The one chunk write path: Put's scatter and dedup re-scatter, lazy
  // migration, and the repair engine's rebuild all write through it.
  std::unique_ptr<ChunkWriter> writer_;
  std::unique_ptr<DownloadSelector> selector_;
  // Transfer worker threads (null when transfer_concurrency == 1).
  std::unique_ptr<ThreadPool> pool_;
  // Proactive scrub & repair over the chunk table (src/repair).
  std::unique_ptr<RepairEngine> repair_;
  // Crash-safe Put write-intent journal (null when journal_path is empty).
  std::unique_ptr<PutJournal> journal_;
  // The metadata object format and its scatter, fetch and discovery.
  std::unique_ptr<MetadataStore> metadata_;
  std::atomic<double> now_{0.0};
  // Gateway backpressure override of the pipeline window (0 = use config).
  std::atomic<uint32_t> pipeline_window_override_{0};

  // Observability sinks (never null after Create) plus cached pipeline
  // counters so the hot paths skip registry lookups.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceCollector* traces_ = nullptr;
  obs::Counter* puts_total_ = nullptr;
  obs::Counter* gets_total_ = nullptr;
  obs::Counter* chunks_scattered_ = nullptr;
  obs::Counter* chunks_deduped_ = nullptr;
  obs::Counter* chunks_adopted_ = nullptr;
  obs::Counter* chunks_gathered_ = nullptr;
  obs::Counter* shares_migrated_ = nullptr;
  obs::Counter* codec_creates_ = nullptr;
  obs::Counter* range_gets_total_ = nullptr;
  // Gathers planned by the reader's fallback walk instead of the selector.
  obs::Counter* select_fallbacks_error_ = nullptr;
  obs::Counter* select_fallbacks_mixed_t_ = nullptr;
  obs::Counter* readahead_issued_ = nullptr;
  obs::Counter* readahead_completed_ = nullptr;
  obs::Counter* readahead_cancelled_ = nullptr;
  // Integrity pipeline: shares rejected pre-decode (total; the per-CSP
  // breakdown is the labeled cyrus_integrity_failures_total series looked
  // up on the - rare - failure path), shares re-uploaded in place after a
  // gather identified them as corrupt, and legacy records upgraded with
  // freshly derived digests.
  obs::Counter* integrity_failures_ = nullptr;
  obs::Counter* integrity_shares_healed_ = nullptr;
  obs::Counter* integrity_records_upgraded_ = nullptr;
  obs::Histogram* put_latency_ms_ = nullptr;
  obs::Histogram* get_latency_ms_ = nullptr;
};

}  // namespace cyrus

#endif  // SRC_CORE_CLIENT_H_
