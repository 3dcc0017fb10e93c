#include "src/core/client.h"

#include <algorithm>
#include <chrono>
#include <list>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "src/core/reliability.h"
#include "src/crypto/naming.h"
#include "src/crypto/sha1.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Digest mismatches from one CSP before it is marked failed: one could be
// rot in a single object; three mark a provider that lies.
constexpr uint64_t kIntegrityQuarantineThreshold = 3;

// Observes the enclosing scope's wall time into a latency histogram on
// every exit path, error returns included.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(obs::Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;
  ~LatencyRecorder() {
    histogram_->Observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }

 private:
  obs::Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

// Marks a multi-head name's result as conflicted.
void AnnotateConflicts(const std::vector<const FileVersion*>& live,
                       std::string_view name, GetResult& result) {
  if (std::optional<Conflict> conflict = VersionTree::LiveHeadConflict(name, live)) {
    result.had_conflicts = true;
    result.conflicts.push_back(*std::move(conflict));
  }
}

}  // namespace

CyrusClient::CyrusClient(CyrusConfig config, Chunker chunker)
    : config_(std::move(config)),
      deriver_(config_.dedup_salt, config_.key_string),
      chunker_(std::move(chunker)),
      chunk_cache_(ChunkCacheOptions{.byte_budget = config_.chunk_cache_bytes,
                                     .metrics = config_.metrics}),
      selector_(std::make_unique<OptimalDownloadSelector>()) {
  if (config_.transfer_concurrency > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.transfer_concurrency);
  }
  metrics_ = config_.metrics != nullptr ? config_.metrics : &obs::MetricsRegistry::Default();
  // Every CSP call of every component routes a failure that indicts the
  // provider into the same health machinery.
  calls_ = std::make_unique<CspCalls>(&registry_, &monitor_, config_.transfer_retry, metrics_,
                                      [this](int csp) { (void)MarkCspFailed(csp); });
  ChunkReaderContext reader_context;
  reader_context.registry = &registry_;
  reader_context.calls = calls_.get();
  reader_context.monitor = &monitor_;
  reader_context.pool = pool_.get();
  reader_context.buffers = &codec_buffers_;
  reader_context.now = [this] { return now(); };
  // Dedup chunks were dispersed under their content key; unwrap it with
  // the user key (reads never touch the deployment salt or the index).
  reader_context.chunk_key = [this](const ChunkRecord& chunk) -> Result<std::string> {
    if (!chunk.dedup) {
      return config_.key_string;
    }
    return deriver_.UnwrapForUser(chunk.wrapped_key, chunk.id);
  };
  reader_context.on_integrity_failure = [this](int csp) {
    (void)NoteIntegrityFailure(csp);
  };
  reader_ = std::make_unique<ChunkReader>(std::move(reader_context));

  ChunkWriterContext writer_context;
  writer_context.calls = calls_.get();
  writer_context.ring = &ring_;
  writer_context.monitor = &monitor_;
  writer_context.pool = pool_.get();
  writer_context.buffers = &codec_buffers_;
  writer_context.cluster_aware = config_.cluster_aware;
  writer_context.now = [this] { return now(); };
  // Write-ahead journaling: every (csp, object) pair a Put may create is
  // durably recorded before its upload, so a crash leaves a journal
  // superset of what landed (a never-made upload rolls back as a harmless
  // NotFound-on-delete).
  writer_context.journal = [this](const std::string& intent, int csp,
                                  const std::string& object) -> Status {
    if (journal_ == nullptr || intent.empty()) {
      return OkStatus();
    }
    CYRUS_ASSIGN_OR_RETURN(std::string csp_name, registry_.name(csp));
    return journal_->AppendShare(intent, csp_name, object);
  };
  writer_ = std::make_unique<ChunkWriter>(std::move(writer_context));

  MetadataStoreContext metadata_context;
  metadata_context.registry = &registry_;
  metadata_context.calls = calls_.get();
  metadata_context.monitor = &monitor_;
  metadata_context.chunk_table = &chunk_table_;
  metadata_context.key_string = config_.key_string;
  metadata_context.meta_t = config_.meta_t;
  metadata_context.sync_interval_s = config_.metadata_sync_interval_s;
  metadata_context.now = [this] { return now(); };
  metadata_ = std::make_unique<MetadataStore>(std::move(metadata_context));

  RepairContext repair_context;
  repair_context.calls = calls_.get();
  repair_context.registry = &registry_;
  repair_context.chunk_table = &chunk_table_;
  repair_context.monitor = &monitor_;
  repair_context.pool = pool_.get();
  repair_context.reader = reader_.get();
  repair_context.writer = writer_.get();
  repair_context.cluster_aware = config_.cluster_aware;
  repair_context.now = [this] { return now(); };
  repair_context.mark_csp_failed = [this](int csp) { return MarkCspFailed(csp); };
  repair_context.current_n = [this] { return CurrentN(); };
  // The share index (nullable) additionally enables the orphan-reclaim GC
  // pass.
  repair_context.share_index = config_.share_index;

  traces_ = config_.traces != nullptr ? config_.traces : &obs::TraceCollector::Default();
  repair_context.metrics = metrics_;
  repair_ = std::make_unique<RepairEngine>(std::move(repair_context), config_.repair);

  puts_total_ = metrics_->GetCounter("cyrus_client_puts_total", {},
                                     "Put operations attempted");
  gets_total_ = metrics_->GetCounter("cyrus_client_gets_total", {},
                                     "Get/GetVersion operations attempted");
  chunks_scattered_ = metrics_->GetCounter("cyrus_client_chunks_scattered_total", {},
                                           "Chunks encoded and uploaded by Put");
  chunks_deduped_ = metrics_->GetCounter("cyrus_client_chunks_deduped_total", {},
                                         "Put chunks served from the chunk table");
  chunks_adopted_ = metrics_->GetCounter(
      "cyrus_put_adopted_chunks_total", {},
      "Put chunks taken from the replaced version by their ids, without a Rabin cut");
  chunks_gathered_ = metrics_->GetCounter("cyrus_client_chunks_gathered_total", {},
                                          "Chunks downloaded and decoded by Get");
  shares_migrated_ = metrics_->GetCounter("cyrus_client_shares_migrated_total", {},
                                          "Share locations lazily migrated by Get");
  codec_creates_ = metrics_->GetCounter("cyrus_client_codec_creates_total", {},
                                        "Secret-sharing codecs constructed for "
                                        "chunk scatter (one per Put, not per chunk)");
  range_gets_total_ = metrics_->GetCounter("cyrus_client_range_gets_total", {},
                                           "GetRange operations attempted");
  constexpr std::string_view kSelectFallbackHelp =
      "Gathers whose sources the reader's fallback walk picked because the "
      "download selector failed (reason=error) or a chunk was encoded with "
      "another t (reason=mixed_t)";
  select_fallbacks_error_ = metrics_->GetCounter(
      "cyrus_download_select_fallbacks_total", {{"reason", "error"}}, kSelectFallbackHelp);
  select_fallbacks_mixed_t_ = metrics_->GetCounter(
      "cyrus_download_select_fallbacks_total", {{"reason", "mixed_t"}}, kSelectFallbackHelp);
  readahead_issued_ = metrics_->GetCounter("cyrus_readahead_issued_total", {},
                                           "Chunk prefetches handed to the pool");
  readahead_completed_ = metrics_->GetCounter(
      "cyrus_readahead_completed_total", {},
      "Prefetched chunks decoded, verified, and cached");
  readahead_cancelled_ = metrics_->GetCounter(
      "cyrus_readahead_cancelled_total", {},
      "Prefetches credited back because the reader seeked (or the fetch "
      "failed) before they ran");
  integrity_failures_ = metrics_->GetCounter(
      "cyrus_integrity_rejected_shares_total", {},
      "Share downloads discarded before decode because the bytes failed "
      "digest authentication (per-CSP attribution is in the labeled "
      "cyrus_integrity_failures_total series)");
  integrity_shares_healed_ = metrics_->GetCounter(
      "cyrus_integrity_shares_healed_total", {},
      "Corrupt shares overwritten in place with freshly re-encoded bytes "
      "after a gather identified them");
  integrity_records_upgraded_ = metrics_->GetCounter(
      "cyrus_integrity_records_upgraded_total", {},
      "Legacy (pre-digest) chunk records upgraded with per-share digests "
      "derived on first read");
  put_latency_ms_ = metrics_->GetHistogram("cyrus_client_put_latency_ms", {}, {},
                                           "End-to-end Put pipeline wall time");
  get_latency_ms_ = metrics_->GetHistogram("cyrus_client_get_latency_ms", {}, {},
                                           "End-to-end Get pipeline wall time");
}

Result<std::unique_ptr<CyrusClient>> CyrusClient::Create(CyrusConfig config) {
  if (config.t < 1) {
    return InvalidArgumentError("privacy parameter t must be >= 1");
  }
  if (config.meta_t < 1) {
    return InvalidArgumentError("metadata threshold meta_t must be >= 1");
  }
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return InvalidArgumentError("epsilon must be in (0, 1)");
  }
  if (config.key_string.empty()) {
    return InvalidArgumentError("key string must not be empty");
  }
  if (config.pipeline_window_chunks < 1) {
    return InvalidArgumentError("pipeline_window_chunks must be >= 1");
  }
  if (config.put_failure_budget >= 0 &&
      static_cast<uint32_t>(config.put_failure_budget) > kMaxShares) {
    return InvalidArgumentError("put_failure_budget exceeds the share-count bound");
  }
  if (config.dedup_mode == DedupMode::kConvergent && config.dedup_salt.empty()) {
    return InvalidArgumentError(
        "convergent dedup requires a deployment salt (dedup_salt): unsalted "
        "content keys are open to offline dictionary attacks");
  }
  std::unique_ptr<PutJournal> journal;
  if (!config.journal_path.empty()) {
    CYRUS_ASSIGN_OR_RETURN(journal, PutJournal::Open(config.journal_path));
  }
  CYRUS_ASSIGN_OR_RETURN(Chunker chunker, Chunker::Create(config.chunker));
  std::unique_ptr<CyrusClient> client(
      new CyrusClient(std::move(config), std::move(chunker)));
  client->journal_ = std::move(journal);
  return client;
}

// ---------------------------------------------------------------------------
// CSP account management
// ---------------------------------------------------------------------------

Result<int> CyrusClient::AddCsp(std::shared_ptr<CloudConnector> connector,
                                CspProfile profile, const Credentials& credentials) {
  if (connector == nullptr) {
    return InvalidArgumentError("connector must not be null");
  }
  const std::string name(connector->id());
  CYRUS_RETURN_IF_ERROR(connector->Authenticate(credentials));
  // Authenticate ran outside the lock (it is a connector call); the
  // registry+ring registration below is the atomic part.
  std::lock_guard<std::mutex> topology(topology_mutex_);
  const int index = registry_.Add(std::move(connector), profile);
  Status ring_status = ring_.AddCsp(index, name, profile.cluster);
  if (!ring_status.ok()) {
    // Roll the registry entry back to keep ring and registry consistent.
    (void)registry_.SetState(index, CspState::kRemoved);
    return ring_status;
  }
  monitor_.RecordProbe(index, now_, true);
  return index;
}

Status CyrusClient::RemoveCsp(int csp) {
  {
    std::lock_guard<std::mutex> topology(topology_mutex_);
    CYRUS_ASSIGN_OR_RETURN(CspState state, registry_.state(csp));
    if (state == CspState::kRemoved) {
      return OkStatus();
    }
    CYRUS_RETURN_IF_ERROR(registry_.SetState(csp, CspState::kRemoved));
    if (ring_.Contains(csp)) {
      CYRUS_RETURN_IF_ERROR(ring_.RemoveCsp(csp));
    }
  }
  // Metadata is small: re-scatter every version to the remaining CSPs now.
  // Chunk shares migrate lazily on subsequent downloads (paper §5.5).
  // Outside the topology lock: a failed publish may itself MarkCspFailed.
  return RebalanceMetadata();
}

Status CyrusClient::MarkCspFailed(int csp) {
  // Pipeline workers race here when several transfers to one CSP fail at
  // once; the topology lock makes check-then-remove atomic, so exactly one
  // caller performs the downgrade and the rest see the new state.
  std::lock_guard<std::mutex> topology(topology_mutex_);
  CYRUS_ASSIGN_OR_RETURN(CspState state, registry_.state(csp));
  monitor_.RecordProbe(csp, now_, false);
  if (state != CspState::kActive) {
    return OkStatus();
  }
  CYRUS_RETURN_IF_ERROR(registry_.SetState(csp, CspState::kFailed));
  if (ring_.Contains(csp)) {
    CYRUS_RETURN_IF_ERROR(ring_.RemoveCsp(csp));
  }
  return OkStatus();
}

Status CyrusClient::MarkCspRecovered(int csp) {
  std::lock_guard<std::mutex> topology(topology_mutex_);
  CYRUS_ASSIGN_OR_RETURN(CspState state, registry_.state(csp));
  monitor_.RecordProbe(csp, now_, true);
  if (state != CspState::kFailed) {
    return OkStatus();
  }
  CYRUS_RETURN_IF_ERROR(registry_.SetState(csp, CspState::kActive));
  CYRUS_ASSIGN_OR_RETURN(std::string name, registry_.name(csp));
  CYRUS_ASSIGN_OR_RETURN(CspProfile profile, registry_.profile(csp));
  CYRUS_RETURN_IF_ERROR(ring_.AddCsp(csp, name, profile.cluster));
  // ShareLocations naming this CSP predate the outage; the provider may
  // have lost objects while down, so they must be re-verified by a scrub
  // pass before the reliability accounting trusts them again.
  repair_->FlagCspForReprobe(csp);
  return OkStatus();
}

Status CyrusClient::NoteIntegrityFailure(int csp) {
  integrity_failures_->Increment();
  std::string csp_id = StrCat("csp-", csp);
  if (auto name = registry_.name(csp); name.ok()) {
    csp_id = *std::move(name);
  }
  metrics_
      ->GetCounter("cyrus_integrity_failures_total", {{"csp", csp_id}},
                   "Share downloads whose bytes failed digest authentication, "
                   "attributed to the CSP that served them")
      ->Increment();
  uint64_t ledger = 0;
  {
    std::lock_guard<std::mutex> topology(topology_mutex_);
    monitor_.RecordIntegrityFailure(csp);
    monitor_.RecordProbe(csp, now_, false);
    ledger = monitor_.IntegrityFailureCount(csp);
  }
  if (ledger >= kIntegrityQuarantineThreshold) {
    return MarkCspFailed(csp);
  }
  return OkStatus();
}

void CyrusClient::AugmentRecordDigests(ChunkRecord& record) const {
  if (const ChunkEntry* entry = chunk_table_.Find(record.id); entry != nullptr) {
    AdoptShareDigests(entry->shares, record);
  }
}

uint32_t CyrusClient::PutQuorum(uint32_t n) const {
  if (config_.put_failure_budget < 0) {
    return config_.t;
  }
  const uint32_t budget =
      std::min(n, static_cast<uint32_t>(config_.put_failure_budget));
  return std::max(config_.t, n - budget);
}

Status CyrusClient::AssignClusters(const std::vector<int>& cluster_per_csp) {
  std::lock_guard<std::mutex> topology(topology_mutex_);
  if (cluster_per_csp.size() != registry_.size()) {
    return InvalidArgumentError(StrCat("got ", cluster_per_csp.size(),
                                       " cluster ids for ", registry_.size(), " CSPs"));
  }
  for (size_t i = 0; i < cluster_per_csp.size(); ++i) {
    const int csp = static_cast<int>(i);
    CYRUS_ASSIGN_OR_RETURN(CspProfile profile, registry_.profile(csp));
    profile.cluster = cluster_per_csp[i];
    CYRUS_RETURN_IF_ERROR(registry_.SetProfile(csp, profile));
    if (ring_.Contains(csp)) {
      CYRUS_RETURN_IF_ERROR(ring_.RemoveCsp(csp));
      CYRUS_ASSIGN_OR_RETURN(std::string name, registry_.name(csp));
      CYRUS_RETURN_IF_ERROR(ring_.AddCsp(csp, name, profile.cluster));
    }
  }
  return OkStatus();
}

Result<uint32_t> CyrusClient::CurrentN() const {
  const size_t max_n = config_.cluster_aware ? registry_.NumActiveClusters()
                                             : registry_.ActiveIndices().size();
  double p = monitor_.MaxFailureProbability();
  if (p <= 0.0) {
    p = config_.default_failure_prob;
  }
  return MinSharesForReliability(config_.t, p, config_.epsilon,
                                 static_cast<uint32_t>(max_n));
}

void CyrusClient::set_download_selector(std::unique_ptr<DownloadSelector> selector) {
  selector_ = std::move(selector);
}

double CyrusClient::LearnedDownloadRate(int csp, double share_bytes) const {
  auto profile = registry_.profile(csp);
  if (!profile.ok()) {
    return 0.0;
  }
  const double rate = profile->download_bytes_per_sec;
  const double excess = monitor_.MedianExcessSeconds(csp);
  if (excess <= 0.0 || share_bytes <= 0.0) {
    return rate;
  }
  return share_bytes / (share_bytes / rate + excess);
}

// ---------------------------------------------------------------------------
// Gather and lazy migration
// ---------------------------------------------------------------------------

std::vector<ShareLocation> CyrusClient::ResolveChunkLocations(
    const Sha1Digest& chunk_id) const {
  std::vector<ShareLocation> locations;
  if (const ChunkEntry* entry = chunk_table_.Find(chunk_id); entry != nullptr) {
    for (const ChunkShare& s : entry->shares) {
      locations.push_back(ShareLocation{chunk_id, s.share_index, s.csp});
    }
  }
  return locations;
}

// A covering chunk of a pipelined gather: filled on a worker, booked (and
// cached) by the driver's ordered completion.
struct CyrusClient::GatherSlot {
  ChunkRecord chunk;
  std::shared_ptr<Bytes> buffer;  // range reads: cache-owned plaintext
  MutableByteSpan dst;            // where the chunk decodes
  std::vector<ShareLocation> locations;
  std::vector<int> selected;      // the download selector's picks
  Status status = InternalError("not gathered");
  ChunkReadResult read;
  bool migrating = false;  // some location is on a failed or removed CSP
  size_t migrated = 0;
  std::vector<ShareDigest> upgraded;   // re-derived share digests
};

void CyrusClient::GatherGroup(const std::vector<GatherSlot*>& group) {
  std::vector<ChunkReadRequest> requests(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    GatherSlot& slot = *group[i];
    // Lazy share migration (paper §5.5, Figure 9) in FinishGather
    // regenerates shares whose CSP is failed or removed, so their source
    // plaintext is hashed.
    slot.migrating =
        std::any_of(slot.locations.begin(), slot.locations.end(),
                    [&](const ShareLocation& loc) { return !registry_.IsActive(loc.csp); });
    ChunkReadRequest& request = requests[i];
    request.chunk = &slot.chunk;
    request.locations = &slot.locations;
    request.options.preferred = slot.selected;
    request.options.verify_plaintext = slot.migrating;
    request.dst = slot.dst;
    request.result = &slot.read;
  }
  reader_->ReadGroup(requests);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i]->status =
        requests[i].status.ok() ? FinishGather(*group[i]) : std::move(requests[i].status);
  }
}

Status CyrusClient::FinishGather(GatherSlot& slot) {
  const ChunkRecord& chunk = slot.chunk;
  if (slot.read.healed > 0) {
    integrity_shares_healed_->Increment(slot.read.healed);
  }

  // Every share on a failed or removed CSP is regenerated at a fresh index
  // on a CSP holding none; the chunk table records it with its digest.
  std::vector<ShareLocation> updated = slot.locations;
  if (slot.migrating) {
    std::vector<int> holders;
    std::vector<ShareLocation*> dead;
    uint32_t max_index = 0;
    for (ShareLocation& loc : updated) {
      max_index = std::max(max_index, loc.share_index);
      if (registry_.IsActive(loc.csp)) {
        holders.push_back(loc.csp);
      } else {
        dead.push_back(&loc);
      }
    }
    CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, reader_->CodecFor(chunk));
    CYRUS_ASSIGN_OR_RETURN(
        std::vector<ChunkShare> fresh,
        writer_->Extend(codec, chunk.id, slot.dst, max_index + 1,
                        static_cast<uint32_t>(dead.size()), std::move(holders),
                        slot.read.report));
    // Shares no CSP would take stay put; a later download retries them.
    for (size_t i = 0; i < fresh.size(); ++i) {
      ShareLocation& loc = *dead[i];
      (void)chunk_table_.MoveShare(chunk.id, loc.csp, loc.share_index, fresh[i].csp,
                                   fresh[i].share_index, fresh[i].digest);
      loc = ShareLocation{chunk.id, fresh[i].share_index, fresh[i].csp};
    }
    slot.migrated = fresh.size();
  }

  // Digest bookkeeping: when the read healed or corrected shares, or the
  // record predates per-share digests, derive the authoritative digest set
  // from the verified plaintext. The chunk table is updated here; the
  // driver republishes the metadata that references the chunk.
  if (chunk.share_digests.empty() || slot.read.healed > 0 || slot.read.corrected) {
    std::set<uint32_t> indices;
    for (const ShareLocation& loc : updated) {
      indices.insert(loc.share_index);
    }
    CYRUS_ASSIGN_OR_RETURN(
        slot.upgraded,
        reader_->DeriveDigests(chunk, slot.dst,
                               std::vector<uint32_t>(indices.begin(), indices.end())));
    for (const ShareDigest& d : slot.upgraded) {
      (void)chunk_table_.SetShareDigest(chunk.id, d.share_index, d.digest);
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Metadata sync and the local cache
// ---------------------------------------------------------------------------

bool CyrusClient::AllChunksTracked(const FileVersion& version) const {
  return std::all_of(version.chunks.begin(), version.chunks.end(),
                     [this](const ChunkRecord& chunk) {
                       return chunk_table_.Contains(chunk.id);
                     });
}

LocalCacheSnapshot CyrusClient::ExportCache() const {
  LocalCacheSnapshot snapshot;
  for (const FileVersion* version : tree_.AllVersions()) {
    // A version with a chunk scrub reclaimed has no layout left to
    // project, and a snapshot must import whole.
    if (AllChunksTracked(*version)) {
      snapshot.versions.push_back(metadata_->ToWireForm(*version));
    }
  }
  snapshot.known_meta_bases = metadata_->known_bases();
  return snapshot;
}

Status CyrusClient::ImportCache(const LocalCacheSnapshot& snapshot) {
  tree_ = VersionTree();
  chunk_table_ = ChunkTable();
  put_heads_.clear();
  metadata_->Reset();
  for (const FileVersion& wire : snapshot.versions) {
    CYRUS_RETURN_IF_ERROR(wire.Validate());
    // The chunk table is rebuilt from the versions: wire-form rows name
    // CSPs by stable connector id, and the rebuild reproduces refcounts
    // exactly.
    FileVersion version = metadata_->ToLocalForm(wire);
    CYRUS_RETURN_IF_ERROR(RegisterVersionChunks(version));
    CYRUS_RETURN_IF_ERROR(tree_.Insert(version));
  }
  metadata_->Reset(snapshot.known_meta_bases);
  return OkStatus();
}

Status CyrusClient::RegisterVersionChunks(FileVersion& version) {
  std::set<Sha1Digest> seen;
  for (const ChunkRecord& chunk : version.chunks) {
    if (!seen.insert(chunk.id).second) {
      continue;  // duplicate chunk within the file: count once per version
    }
    if (const ChunkEntry* entry = chunk_table_.Find(chunk.id); entry != nullptr) {
      CYRUS_RETURN_IF_ERROR(chunk_table_.AddRef(chunk.id));
      // The tracked layout stands; the incoming record only lends a digest
      // to a tracked share that has none.
      for (const ChunkShare& share : entry->shares) {
        const Sha1Digest* digest = chunk.FindShareDigest(share.share_index);
        if (!share.has_digest() && digest != nullptr) {
          CYRUS_RETURN_IF_ERROR(
              chunk_table_.SetShareDigest(chunk.id, share.share_index, *digest));
        }
      }
      continue;
    }
    // Synced copies carry the dedup fields so Get can unwrap the content
    // key, but take no *global* reference: the writing client counted the
    // version at Put time, and this table is a mirror of the same versions.
    std::vector<ChunkShare> shares;
    for (const ShareLocation& loc : version.SharesOfChunk(chunk.id)) {
      shares.push_back(ChunkShare{loc.share_index, loc.csp});
    }
    CYRUS_RETURN_IF_ERROR(
        chunk_table_.Insert(chunk.id, EntryFromRecord(chunk, std::move(shares))));
  }
  version.shares.clear();
  for (ChunkRecord& chunk : version.chunks) {
    chunk.share_digests.clear();
  }
  return OkStatus();
}

Result<std::vector<Conflict>> CyrusClient::SyncMetadata() {
  std::set<std::string> touched_names;
  for (FileVersion& version : metadata_->Discover()) {
    if (!tree_.Contains(version.id)) {
      CYRUS_RETURN_IF_ERROR(RegisterVersionChunks(version));
      CYRUS_RETURN_IF_ERROR(tree_.Insert(version));
      touched_names.insert(version.file_name);
    }
  }
  // Report user-level conflicts: names the new versions left with several
  // live heads (paper Figure 8's two cases both surface this way).
  std::vector<Conflict> conflicts;
  for (const std::string& name : touched_names) {
    if (std::optional<Conflict> conflict =
            VersionTree::LiveHeadConflict(name, tree_.LiveHeads(name))) {
      conflicts.push_back(*std::move(conflict));
    }
  }
  return conflicts;
}

Status CyrusClient::Recover() {
  tree_ = VersionTree();
  chunk_table_ = ChunkTable();
  put_heads_.clear();
  metadata_->Reset();  // forces a full pass despite the throttle
  return SyncMetadata().status();
}

// ---------------------------------------------------------------------------
// File operations
// ---------------------------------------------------------------------------

Sha1Digest CyrusClient::ParentFor(std::string_view name) const {
  const FileVersion* newest = VersionTree::Newest(tree_.Heads(name));
  return newest != nullptr ? newest->id : Sha1Digest{};
}

std::vector<PlannedChunk> CyrusClient::AdoptableChunks(std::string_view name,
                                                       const Sha1Digest& parent) const {
  std::vector<PlannedChunk> chunks;
  auto it = put_heads_.find(name);
  const FileVersion* head = tree_.Find(parent);
  if (it == put_heads_.end() || it->second != parent || head == nullptr) {
    return chunks;
  }
  chunks.reserve(head->chunks.size());
  for (const ChunkRecord& chunk : head->chunks) {
    chunks.push_back(PlannedChunk{ChunkSpan{chunk.offset, chunk.size}, chunk.id});
  }
  return chunks;
}

Result<SecretSharingCodec> CyrusClient::ConvergentCodec(const Sha1Digest& chunk_id,
                                                        uint32_t n, Bytes& wrapped_key) {
  if (config_.dedup_salt.empty()) {
    return FailedPreconditionError(
        StrCat("chunk ", chunk_id.ToHex(),
               " cannot be encoded convergently without the deployment dedup salt"));
  }
  const std::string content_key = deriver_.ContentKey(chunk_id);
  wrapped_key = deriver_.WrapForUser(content_key, chunk_id);
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec,
                         SecretSharingCodec::Create(content_key, config_.t, n));
  codec_creates_->Increment();
  return codec;
}

Status CyrusClient::RecordScatteredChunk(const Sha1Digest& chunk_id, uint64_t size,
                                         uint32_t n, bool convergent, Bytes wrapped_key,
                                         std::vector<ChunkShare> shares, bool replace,
                                         PutResult& result) {
  // The *target* share count n is recorded, not the stored count: a quorum
  // commit may have landed fewer, and the gap is repair debt the scrub
  // engine completes against exactly this entry.
  const uint32_t stored = static_cast<uint32_t>(shares.size());
  const ChunkRecord record{chunk_id, 0, size, config_.t, n, convergent,
                           std::move(wrapped_key), {}};
  ChunkEntry entry = EntryFromRecord(record, std::move(shares));
  if (convergent && config_.share_index != nullptr) {
    // Publish the layout for every other writer. Racing publishers of the
    // same chunk merge (uploads were byte-identical overwrites).
    ShareIndexEntry published;
    published.logical_size = size;
    published.t = config_.t;
    published.n = n;
    published.refcount = 1;
    published.shares = entry.shares;
    CYRUS_RETURN_IF_ERROR(config_.share_index->Publish(chunk_id, std::move(published)));
  }
  CYRUS_RETURN_IF_ERROR(replace ? chunk_table_.Replace(chunk_id, std::move(entry))
                                : chunk_table_.Insert(chunk_id, std::move(entry)));
  if (stored < n) {
    ++result.degraded_chunks;
    result.missing_shares += n - stored;
    repair_->NoteDegradedWrite(chunk_id, n - stored);
  }
  return OkStatus();
}

Result<PutResult> CyrusClient::Put(std::string_view name, ByteSpan content) {
  if (name.empty()) {
    return InvalidArgumentError("file name must not be empty");
  }
  puts_total_->Increment();
  LatencyRecorder latency(put_latency_ms_);
  obs::TraceBuilder trace(traces_, "Put", std::string(name));
  // Algorithm 2 reads the head from the *local* tree (metadata sync runs as
  // its own service); a stale local tree is exactly what produces the
  // Figure 8 conflicts, which are detected on download instead of blocking
  // the upload.
  PutResult result;
  result.content_bytes = content.size();

  // The plan gives each chunk's span and id, and the content id derived
  // from them settles whether there is anything to write.
  const Sha1Digest parent = ParentFor(name);
  ChunkPlanner planner(chunker_, content, pool_.get(), AdoptableChunks(name, parent), &trace);
  const std::vector<PlannedChunk> plan = planner.Plan();
  const Sha1Digest content_id = ComputeContentId(plan);
  result.content_id = content_id;
  if (!IsNullDigest(parent)) {
    const FileVersion* head = tree_.Find(parent);
    if (head != nullptr && !head->deleted && head->content_id == content_id) {
      result.unchanged = true;
      result.version_id = head->id;
      return result;
    }
  }
  result.version_id = ComputeVersionId(content_id, parent, name);
  if (tree_.Contains(result.version_id)) {
    // Identical (content, parent, name): re-putting is a no-op.
    result.unchanged = true;
    return result;
  }

  // Crash safety: open a write intent before any share leaves this client.
  // Every upload target is journaled ahead of its attempt, metadata is
  // journaled once all shares are durable, and the intent commits only
  // after the version metadata is published - so recovery can always
  // either roll the Put forward or delete every orphan it may have left.
  const std::string journal_id =
      journal_ != nullptr ? result.version_id.ToHex() : std::string();
  if (journal_ != nullptr) {
    CYRUS_RETURN_IF_ERROR(journal_->BeginIntent(journal_id, std::string(name)));
  }

  // Eq. (1) sizes n; if the failure budget is unreachable with the CSPs
  // currently active (e.g. some are marked failed), degrade to the widest
  // feasible scatter rather than refusing writes - the paper's "no shares
  // are uploaded to that CSP until it is back" implies exactly this.
  uint32_t n;
  if (auto n_or = CurrentN(); n_or.ok()) {
    n = *n_or;
  } else {
    const size_t max_n = config_.cluster_aware ? registry_.NumActiveClusters()
                                               : registry_.ActiveIndices().size();
    if (max_n < config_.t) {
      return n_or.status();
    }
    n = static_cast<uint32_t>(max_n);
  }
  result.n = n;

  FileVersion version;
  version.id = result.version_id;
  version.content_id = content_id;
  version.prev_id = parent;
  version.client_id = config_.client_id;
  version.file_name = std::string(name);
  version.modified_time = now_;
  version.size = content.size();

  // One codec serves every chunk of this Put: the dispersal matrix depends
  // only on (key, t, n), so constructing it per chunk was pure waste.
  CYRUS_ASSIGN_OR_RETURN(
      SecretSharingCodec codec,
      SecretSharingCodec::Create(config_.key_string, config_.t, n));
  codec_creates_->Increment();

  // Pipelined scatter (§5.3): chunk i+1 is encoded and uploading on the
  // pool while chunk i's completion is book-kept. The OrderedPipeline
  // delivers completions in file order on this thread, so every mutation
  // of chunk_table_ / version below keeps the sequential path's
  // invariants; the window bounds in-flight share buffers to O(window).
  //
  // Slots live in a std::list so in-flight workers hold stable addresses;
  // declared before the pipeline so they outlive its destructor's join.
  struct ScatterSlot {
    Sha1Digest chunk_id;
    ChunkSpan span{};
    Result<std::vector<ChunkShare>> shares = InternalError("not scattered");
    TransferReport report;
    bool dedup = false;      // served by the local chunk table / in-flight set
    bool index_hit = false;  // served by the cross-user ShareIndex (ref taken)
    ShareIndexEntry index_entry;
    Bytes wrapped_key;       // per-user wrap of the content key (convergent)
  };
  std::list<ScatterSlot> slots;
  OrderedPipeline::Options window;
  window.max_in_flight = pipeline_window();
  OrderedPipeline pipeline(pool_.get(), window);

  const bool convergent = convergent_writes();
  const uint32_t quorum = PutQuorum(n);
  std::set<Sha1Digest> recorded;
  // Every completion ends here once the chunk-table entry is final: the
  // version gains a ChunkRecord. Its share locations and digests stay in
  // the table, which the published metadata is projected from.
  auto record_chunk = [&](const Sha1Digest& id, uint64_t offset) -> Status {
    const ChunkEntry* entry = chunk_table_.Find(id);
    if (entry == nullptr) {
      return InternalError(StrCat("chunk ", id.ToHex(), " missing from chunk table"));
    }
    version.chunks.push_back(ChunkRecord{id, offset, entry->size, entry->t, entry->n,
                                         entry->dedup, entry->wrapped_key, {}});
    recorded.insert(id);
    return OkStatus();
  };
  // New chunks submitted but whose completion has not been delivered yet.
  // A duplicate of an in-flight chunk rides the pipeline as a no-work
  // task: ordered delivery guarantees the first occurrence's chunk-table
  // insert lands before the duplicate's lookup. Index hits ride the set
  // too - their local chunk-table insert also lands in on_complete.
  std::set<Sha1Digest> inflight;
  Status pipeline_status;
  // Every dedup decision and chunk-table mutation stays on this thread, in
  // file order.
  for (const PlannedChunk& planned : plan) {
    const ChunkSpan span = planned.span;
    const Sha1Digest chunk_id = planned.id;
    const ByteSpan chunk_bytes = content.subspan(span.offset, span.size);
    ++result.total_chunks;

    slots.emplace_back();
    ScatterSlot* slot = &slots.back();
    slot->chunk_id = chunk_id;
    slot->span = span;
    slot->dedup =
        chunk_table_.Find(chunk_id) != nullptr || inflight.count(chunk_id) > 0;
    if (!slot->dedup && convergent && config_.share_index != nullptr) {
      // The cross-user lookup is batched into the pipelined submit loop:
      // one sharded-map probe per chunk, and a hit takes its global
      // reference here so a concurrent GC pass can never reclaim the
      // chunk between this decision and the metadata publish.
      if (auto hit = config_.share_index->LookupAndRef(chunk_id)) {
        slot->index_hit = true;
        slot->index_entry = *std::move(hit);
      }
    }

    std::function<void()> work;
    if (slot->dedup) {
      work = [] {};
    } else if (slot->index_hit) {
      inflight.insert(chunk_id);
      // No encode, no upload - the only work a duplicate chunk costs is
      // re-deriving its content key so this user's metadata can carry the
      // wrap (the writer holds the salt, so derive beats re-reading it).
      work = [this, slot] {
        slot->wrapped_key = deriver_.WrapForUser(
            deriver_.ContentKey(slot->chunk_id), slot->chunk_id);
      };
    } else if (convergent) {
      inflight.insert(chunk_id);
      // Convergent miss: this chunk's codec is keyed by its own content,
      // so the per-Put user-key codec above cannot serve it. Codec
      // construction is pure (key, t, n) -> matrices and runs on the
      // worker beside the encode it feeds.
      work = [this, slot, chunk_bytes, n, quorum, &journal_id, &trace] {
        auto chunk_codec = ConvergentCodec(slot->chunk_id, n, slot->wrapped_key);
        if (!chunk_codec.ok()) {
          slot->shares = chunk_codec.status();
          return;
        }
        slot->shares = writer_->Scatter(*chunk_codec, slot->chunk_id, chunk_bytes,
                                        quorum, journal_id, slot->report, trace);
      };
    } else {
      inflight.insert(chunk_id);
      work = [this, slot, chunk_bytes, quorum, &codec, &journal_id, &trace] {
        slot->shares = writer_->Scatter(codec, slot->chunk_id, chunk_bytes, quorum,
                                        journal_id, slot->report, trace);
      };
    }
    auto on_complete = [this, slot, n, quorum, convergent, chunk_bytes, &result,
                        &recorded, &record_chunk, &inflight, &journal_id,
                        &trace]() -> Status {
      if (slot->dedup) {
        // Deduplicated: reuse the stored shares (Algorithm 2's "if chunk
        // is not stored" guard), taking one reference per version.
        ++result.dedup_chunks;
        chunks_deduped_->Increment();
        // A chunk this version already references takes no second ref; a
        // missing one fails in record_chunk.
        const ChunkEntry* existing = chunk_table_.Find(slot->chunk_id);
        if (existing == nullptr || recorded.count(slot->chunk_id) > 0) {
          return record_chunk(slot->chunk_id, slot->span.offset);
        }
        CYRUS_RETURN_IF_ERROR(chunk_table_.AddRef(slot->chunk_id));
        if (existing->dedup && config_.share_index != nullptr) {
          // Mirror the local reference in the deployment-wide index.
          Status global = config_.share_index->AddRef(slot->chunk_id);
          if (global.code() == StatusCode::kNotFound) {
            // Reclaimed between this chunk's last release and its
            // re-adoption here. Another shard's scrub only consults its own
            // chunk table, so our local entry did NOT keep the objects out
            // of its delete set - the cached layout may point at nothing.
            // Re-encode and re-upload it as a fresh convergent scatter
            // (uploads are idempotent overwrites under content-addressed
            // names) rather than republish a layout nobody verified; the
            // metadata then references the objects that exist.
            Bytes wrapped_key;
            CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec chunk_codec,
                                   ConvergentCodec(slot->chunk_id, n, wrapped_key));
            CYRUS_ASSIGN_OR_RETURN(
                std::vector<ChunkShare> shares,
                writer_->Scatter(chunk_codec, slot->chunk_id, chunk_bytes, quorum,
                                 journal_id, slot->report, trace));
            result.transfer.Append(slot->report);
            global = RecordScatteredChunk(slot->chunk_id, slot->span.size, n,
                                          /*convergent=*/true, std::move(wrapped_key),
                                          std::move(shares), /*replace=*/true, result);
          }
          CYRUS_RETURN_IF_ERROR(global);
        }
        return record_chunk(slot->chunk_id, slot->span.offset);
      }
      inflight.erase(slot->chunk_id);
      if (slot->index_hit) {
        // Cross-user dedup: the chunk exists under its convergent name at
        // the CSPs already. The reference was taken at submit; all that
        // lands here is this user's bookkeeping - no encode, no upload.
        ++result.dedup_chunks;
        ++result.index_hit_chunks;
        chunks_deduped_->Increment();
        const ChunkRecord adopted{slot->chunk_id, 0, slot->span.size,
                                  slot->index_entry.t, slot->index_entry.n, true,
                                  std::move(slot->wrapped_key), {}};
        CYRUS_RETURN_IF_ERROR(chunk_table_.Insert(
            slot->chunk_id,
            EntryFromRecord(adopted, std::move(slot->index_entry.shares))));
        return record_chunk(slot->chunk_id, slot->span.offset);
      }
      CYRUS_RETURN_IF_ERROR(slot->shares.status());
      ++result.new_chunks;
      chunks_scattered_->Increment();
      result.transfer.Append(slot->report);
      CYRUS_RETURN_IF_ERROR(RecordScatteredChunk(
          slot->chunk_id, slot->span.size, n, convergent, std::move(slot->wrapped_key),
          std::move(slot->shares).value(), /*replace=*/false, result));
      return record_chunk(slot->chunk_id, slot->span.offset);
    };
    pipeline_status = pipeline.Submit(std::move(work), std::move(on_complete));
    if (!pipeline_status.ok()) {
      break;  // an earlier chunk failed; stop feeding, join what's running
    }
  }
  {
    obs::ScopedSpan drain_span = trace.Span("pipeline_drain");
    const Status drained = pipeline.Drain();
    if (pipeline_status.ok()) {
      pipeline_status = drained;
    }
  }
  CYRUS_RETURN_IF_ERROR(pipeline_status);
  result.adopted_chunks = planner.adopted_chunks();
  chunks_adopted_->Increment(result.adopted_chunks);
  result.uploaded_share_bytes = result.transfer.TotalBytes(TransferKind::kPut);

  const FileVersion wire = metadata_->ToWireForm(version);
  CYRUS_RETURN_IF_ERROR(wire.Validate());
  CYRUS_RETURN_IF_ERROR(tree_.Insert(version));

  // Metadata publishes only after every chunk's shares are durable
  // (Algorithm 2 line 10), so readers never see a half-uploaded file:
  // Drain returned OK above only because every chunk's scatter met its
  // quorum and its completion recorded the shares.
  // The metadata record marks the journal intent roll-forward-able: it is
  // only written once every chunk's quorum is durable, so recovery can
  // republish this version without touching share data.
  if (journal_ != nullptr) {
    CYRUS_RETURN_IF_ERROR(journal_->RecordMetadata(journal_id, wire.Serialize()));
  }
  obs::ScopedSpan publish_span = trace.Span("publish_meta");
  TransferReport meta_report;
  CYRUS_RETURN_IF_ERROR(metadata_->Publish(version, meta_report));
  publish_span.End();
  if (journal_ != nullptr) {
    CYRUS_RETURN_IF_ERROR(journal_->Commit(journal_id));
  }
  // Overwrite decrements the superseded head's references (after the new
  // version is durably published, so a crash can only leak refs, never
  // free chunks the surviving metadata still needs). Old versions stay in
  // the tree for history, but their zero-ref chunks become scrub-
  // reclaimable. Only the convergent deployments pay this: the legacy
  // path keeps its append-only refcounts, matching pre-dedup behaviour.
  if (!IsNullDigest(parent)) {
    const FileVersion* old_head = tree_.Find(parent);
    if (old_head != nullptr && !old_head->deleted) {
      // Superseded chunks leave the decoded-chunk cache in every dedup
      // mode; chunks the new version still references stay warm (content
      // addressing makes them byte-identical).
      InvalidateCachedChunks(old_head->chunks, &version.chunks);
      if (convergent) {
        ReleaseChunkRefs(old_head->chunks);
      }
    }
  }
  put_heads_[version.file_name] = version.id;
  result.transfer.Append(meta_report);
  return result;
}

Result<GetResult> CyrusClient::Get(std::string_view name) {
  gets_total_->Increment();
  LatencyRecorder latency(get_latency_ms_);
  obs::TraceBuilder trace(traces_, "Get", std::string(name));
  {
    obs::ScopedSpan sync_span = trace.Span("sync_meta");
    CYRUS_RETURN_IF_ERROR(SyncMetadata().status());
  }

  const std::vector<const FileVersion*> live = tree_.LiveHeads(name);
  const FileVersion* newest = VersionTree::Newest(live);
  if (newest == nullptr) {
    return NotFoundError(StrCat("no live version of ", name));
  }

  CYRUS_ASSIGN_OR_RETURN(
      GetResult result,
      GetRangeTraced(name, newest->id, 0, 0, /*whole_file=*/true, trace));
  AnnotateConflicts(live, name, result);
  return result;
}

Result<GetResult> CyrusClient::GetVersion(std::string_view name,
                                          const Sha1Digest& version_id) {
  gets_total_->Increment();
  LatencyRecorder latency(get_latency_ms_);
  obs::TraceBuilder trace(traces_, "GetVersion", std::string(name));
  return GetRangeTraced(name, version_id, 0, 0, /*whole_file=*/true, trace);
}

Result<GetResult> CyrusClient::GetRange(std::string_view name, uint64_t offset,
                                        uint64_t len) {
  gets_total_->Increment();
  range_gets_total_->Increment();
  LatencyRecorder latency(get_latency_ms_);
  obs::TraceBuilder trace(traces_, "GetRange", std::string(name));
  {
    obs::ScopedSpan sync_span = trace.Span("sync_meta");
    CYRUS_RETURN_IF_ERROR(SyncMetadata().status());
  }
  const std::vector<const FileVersion*> live = tree_.LiveHeads(name);
  const FileVersion* newest = VersionTree::Newest(live);
  if (newest == nullptr) {
    return NotFoundError(StrCat("no live version of ", name));
  }
  CYRUS_ASSIGN_OR_RETURN(
      GetResult result,
      GetRangeTraced(name, newest->id, offset, len, /*whole_file=*/false, trace));
  AnnotateConflicts(live, name, result);
  // Readahead fires only after the foreground bytes are assembled, so the
  // detector sees the range the caller actually consumed.
  if (const FileVersion* version = tree_.Find(result.version_id)) {
    MaybeScheduleReadahead(std::string(name), *version, result.range_offset,
                           result.content.size());
  }
  return result;
}

Result<GetResult> CyrusClient::GetRangeTraced(std::string_view name,
                                              const Sha1Digest& version_id,
                                              uint64_t offset, uint64_t len,
                                              bool whole_file,
                                              obs::TraceBuilder& trace) {
  const FileVersion* version = tree_.Find(version_id);
  if (version == nullptr || version->file_name != name) {
    return NotFoundError(StrCat("no version ", version_id.ToHex(), " of ", name));
  }
  if (whole_file) {
    offset = 0;
    len = version->size;
  }
  if (offset > version->size) {
    // The REST layer maps this to 416 Range Not Satisfiable.
    return InvalidArgumentError(StrCat(name, ": range start ", offset,
                                       " past end of ", version->size,
                                       "-byte file"));
  }
  len = std::min(len, version->size - offset);
  const uint64_t range_end = offset + len;

  GetResult result;
  result.version_id = version_id;
  result.file_size = version->size;
  result.range_offset = offset;
  // A whole-file result can be tens of MiB, written once by the decoder:
  // fault it in huge pages.
  result.content = ZeroedBytes(len);

  // Covering chunks, in file order. A record covers the range iff it
  // overlaps [offset, range_end); everything else is never downloaded,
  // decoded, or allocated - the whole point of the range path. Geometry is
  // validated for every record so a corrupt chunk table fails loudly even
  // when the bad record is outside the range.
  obs::ScopedSpan select_span = trace.Span("select");
  std::vector<const ChunkRecord*> covering;
  std::map<Sha1Digest, const ChunkRecord*> by_id;  // first covering record
  std::vector<Sha1Digest> unique_ids;
  std::set<Sha1Digest> dup_ids;  // ids with >1 covering occurrence
  for (const ChunkRecord& chunk : version->chunks) {
    if (chunk.offset + chunk.size > version->size) {
      return DataLossError(StrCat(name, ": chunk geometry mismatch"));
    }
    if (chunk.offset >= range_end || chunk.offset + chunk.size <= offset) {
      continue;
    }
    covering.push_back(&chunk);
    if (by_id.emplace(chunk.id, &chunk).second) {
      unique_ids.push_back(chunk.id);
    } else {
      dup_ids.insert(chunk.id);
    }
  }

  // Copies a decoded chunk's overlap with the range into the result span.
  auto copy_overlap = [&](const ChunkRecord& chunk, const Bytes& data) {
    const uint64_t begin = std::max<uint64_t>(chunk.offset, offset);
    const uint64_t end =
        std::min<uint64_t>(chunk.offset + chunk.size, range_end);
    std::copy_n(data.begin() + static_cast<ptrdiff_t>(begin - chunk.offset),
                end - begin,
                result.content.begin() + static_cast<ptrdiff_t>(begin - offset));
  };

  // Buffers pinned for the post-drain duplicate fill: cache hits and
  // gathered chunks whose id recurs in the covering set. Pinning (rather
  // than re-Get from the cache) keeps the fill correct even if the ARC
  // evicts the entry mid-operation.
  std::map<Sha1Digest, std::shared_ptr<const Bytes>> resident;

  // Cache pass, on the driver thread: hits are copied out immediately and
  // drop out of the download problem entirely. A miss that a readahead
  // task is already downloading joins it instead of fetching the chunk
  // again; the joins are awaited after every id is classified, so they
  // overlap.
  std::vector<Sha1Digest> to_gather;
  std::vector<std::pair<Sha1Digest, std::shared_ptr<Prefetch>>> joined;
  auto use_resident = [&](const Sha1Digest& id, std::shared_ptr<const Bytes> bytes) {
    ++result.chunks_from_cache;
    copy_overlap(*by_id.at(id), *bytes);
    if (dup_ids.count(id) > 0) {
      resident.emplace(id, std::move(bytes));
    }
  };
  for (const Sha1Digest& id : unique_ids) {
    if (std::shared_ptr<const Bytes> cached = chunk_cache_.Get(id)) {
      use_resident(id, std::move(cached));
    } else if (std::shared_ptr<Prefetch> prefetch = JoinPrefetch(id)) {
      joined.emplace_back(id, std::move(prefetch));
    } else {
      to_gather.push_back(id);
    }
  }
  for (auto& [id, prefetch] : joined) {
    if (std::shared_ptr<const Bytes> landed = AwaitPrefetch(*prefetch)) {
      use_resident(id, std::move(landed));
    } else {
      to_gather.push_back(id);  // failed or stale: fetch it here
    }
  }

  // Optimized downlink selection (Algorithm 1) over the chunks that
  // actually need the network; on infeasibility the reader's fallback walk
  // still tries every active holder. Each CSP is priced at its learned
  // rate for the misses' mean share size.
  DownloadProblem problem;
  problem.t = config_.t;
  double share_bytes = 0.0;
  bool optimizable = true;
  for (const Sha1Digest& id : to_gather) {
    const ChunkRecord* chunk = by_id.at(id);
    if (chunk->t != config_.t) {
      optimizable = false;
    }
    DownloadChunk dc;
    dc.share_bytes = static_cast<double>(ShareSize(chunk->size, chunk->t));
    share_bytes += dc.share_bytes;
    std::set<int> active_holders;
    for (const ShareLocation& loc : ResolveChunkLocations(id)) {
      if (registry_.IsActive(loc.csp)) {
        active_holders.insert(loc.csp);
      }
    }
    dc.stored_at.assign(active_holders.begin(), active_holders.end());
    problem.chunks.push_back(std::move(dc));
  }
  if (!to_gather.empty()) {
    share_bytes /= static_cast<double>(to_gather.size());
  }
  for (size_t i = 0; i < registry_.size(); ++i) {
    problem.csp_bandwidth.push_back(LearnedDownloadRate(static_cast<int>(i), share_bytes));
  }
  std::vector<std::vector<int>> selections(to_gather.size());
  if (!optimizable) {
    select_fallbacks_mixed_t_->Increment();
  } else if (auto assignment = selector_->Select(problem); assignment.ok()) {
    selections = std::move(assignment->selected);
  } else {
    select_fallbacks_error_->Increment();
  }
  select_span.End();

  // Pipelined gather of the misses, in groups that one
  // ChunkReader::ReadGroup reads: a group's fetched shares are verified in
  // one Sha1::HashMany. Its lanes stay busy only while they hold inputs of
  // similar length, so groups are cut from the misses sorted by size,
  // largest first; each group then reads and books its chunks in file
  // order. A group fills the lanes with its t-share chunks, and no group
  // outgrows the window, which still bounds the chunks in flight. The
  // range path decodes each chunk into a fresh cache-owned buffer
  // (inserted on completion, overlap copied to the result); the whole-file
  // path keeps the zero-copy decode straight into the result slice and
  // does NOT populate the cache - one large download must not flush a
  // streaming working set.
  obs::ScopedSpan gather_span = trace.Span("gather");
  const size_t window_chunks = pipeline_window();
  // Without a transfer pool nothing downloads ahead, so there is nothing
  // to hash in lanes.
  const size_t group_size =
      pool_ == nullptr
          ? 1
          : std::clamp<size_t>(kSha1Lanes / std::max<uint32_t>(config_.t, 1), 1,
                               window_chunks);
  std::vector<size_t> gather_order(to_gather.size());
  std::iota(gather_order.begin(), gather_order.end(), size_t{0});
  if (group_size > 1) {
    std::stable_sort(gather_order.begin(), gather_order.end(), [&](size_t a, size_t b) {
      return by_id.at(to_gather[a])->size > by_id.at(to_gather[b])->size;
    });
  }
  std::list<GatherSlot> slots;  // stable addresses; outlives the pipeline
  OrderedPipeline::Options window;
  window.max_in_flight = std::max<size_t>(window_chunks / group_size, 1);
  OrderedPipeline pipeline(pool_.get(), window);

  std::set<Sha1Digest> relaid;  // chunks whose layout or digests changed
  auto book = [&](GatherSlot& slot) -> Status {
    result.transfer.Append(slot.read.report);
    result.integrity_rejected_shares += slot.read.integrity_rejected;
    CYRUS_RETURN_IF_ERROR(slot.status);
    chunks_gathered_->Increment();
    ++result.chunks_decoded;
    gather_span.AddBytes(slot.chunk.size);

    // The chunk table already holds this chunk's migrations and new
    // digests; the metadata that references it is republished once, after
    // the drain, so other devices locate and authenticate the stored
    // shares.
    if (slot.migrated > 0 || !slot.upgraded.empty()) {
      result.migrated_shares += slot.migrated;
      if (!slot.upgraded.empty() && slot.chunk.share_digests.empty()) {
        ++result.digest_upgraded_chunks;
        integrity_records_upgraded_->Increment();
      }
      relaid.insert(slot.chunk.id);
      const ChunkEntry* moved = chunk_table_.Find(slot.chunk.id);
      if (moved != nullptr && slot.chunk.dedup && config_.share_index != nullptr) {
        (void)config_.share_index->ReplaceShares(slot.chunk.id, moved->shares);
      }
    }

    if (!whole_file) {
      copy_overlap(slot.chunk, *slot.buffer);
      std::shared_ptr<const Bytes> decoded = std::move(slot.buffer);
      if (dup_ids.count(slot.chunk.id) > 0) {
        resident.emplace(slot.chunk.id, decoded);
      }
      chunk_cache_.Put(slot.chunk.id, std::move(decoded));
    }
    return OkStatus();
  };

  Status pipeline_status;
  for (size_t first = 0; first < gather_order.size(); first += group_size) {
    std::vector<size_t> members(
        gather_order.begin() + static_cast<ptrdiff_t>(first),
        gather_order.begin() +
            static_cast<ptrdiff_t>(std::min(first + group_size, gather_order.size())));
    std::sort(members.begin(), members.end());
    std::vector<GatherSlot*> group;
    for (size_t i : members) {
      GatherSlot& slot = slots.emplace_back();
      slot.chunk = *by_id.at(to_gather[i]);
      // Workers must not read the chunk table, so the record takes the
      // chunk's digests here.
      AugmentRecordDigests(slot.chunk);
      if (whole_file) {
        slot.dst = MutableByteSpan(result.content.data() + slot.chunk.offset, slot.chunk.size);
      } else {
        slot.buffer = std::make_shared<Bytes>(slot.chunk.size);
        slot.dst = MutableByteSpan(*slot.buffer);
      }
      slot.locations = ResolveChunkLocations(slot.chunk.id);
      slot.selected = selections[i];
      group.push_back(&slot);
    }
    auto work = [this, group] { GatherGroup(group); };
    auto on_complete = [&book, group]() -> Status {
      for (GatherSlot* slot : group) {
        CYRUS_RETURN_IF_ERROR(book(*slot));
      }
      return OkStatus();
    };
    pipeline_status = pipeline.Submit(std::move(work), std::move(on_complete));
    if (!pipeline_status.ok()) {
      break;
    }
  }
  {
    obs::ScopedSpan drain_span = trace.Span("pipeline_drain");
    const Status drained = pipeline.Drain();
    if (pipeline_status.ok()) {
      pipeline_status = drained;
    }
  }
  CYRUS_RETURN_IF_ERROR(pipeline_status);
  gather_span.End();
  if (!relaid.empty()) {
    shares_migrated_->Increment(result.migrated_shares);
    obs::ScopedSpan republish_span = trace.Span("republish_meta");
    CYRUS_RETURN_IF_ERROR(RepublishVersions(&relaid, result.transfer));
  }

  // Duplicate fill: every covering record after the first for its id. The
  // bytes come from the pinned buffer (range path, or a whole-file cache
  // hit) so a cache-resident duplicate is never recopied through the
  // content vector; the whole-file gathered case - where the chunk decoded
  // straight into its first slice and no buffer exists - copies from that
  // slice, which there always holds the complete chunk.
  obs::ScopedSpan assemble_span = trace.Span("assemble");
  for (const ChunkRecord* chunk : covering) {
    const ChunkRecord* first = by_id.at(chunk->id);
    if (chunk == first) {
      continue;
    }
    auto pinned = resident.find(chunk->id);
    if (pinned != resident.end()) {
      copy_overlap(*chunk, *pinned->second);
      continue;
    }
    if (!whole_file) {
      // Unreachable: the range path pins every duplicate id above.
      return InternalError(StrCat(name, ": duplicate chunk ",
                                  chunk->id.ToHex(), " has no pinned buffer"));
    }
    std::copy_n(result.content.begin() + static_cast<ptrdiff_t>(first->offset),
                chunk->size,
                result.content.begin() + static_cast<ptrdiff_t>(chunk->offset));
  }
  // No whole-file re-hash: every chunk was verified as it was read, and
  // FileVersion::Validate guarantees the records tile the file exactly.
  assemble_span.End();
  return result;
}

void CyrusClient::MaybeScheduleReadahead(const std::string& name,
                                         const FileVersion& version,
                                         uint64_t offset, uint64_t len) {
  if (config_.readahead_chunks == 0 || pool_ == nullptr ||
      !chunk_cache_.enabled()) {
    return;
  }
  uint64_t generation = 0;
  uint64_t resume = 0;
  uint64_t run_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(readahead_mutex_);
    auto [it, fresh] = streams_.try_emplace(name);
    StreamState& stream = it->second;
    if (fresh) {
      // Never reuse a generation: a prefetch queued for a deleted stream
      // of the same name must stay stale.
      stream.generation = ++last_stream_generation_;
    }
    const bool sequential = len > 0 && offset == stream.next_offset;
    stream.next_offset = offset + len;
    if (!sequential) {
      // A seek (or a fresh mid-file stream): take a new generation so
      // in-flight prefetches for the abandoned position self-cancel, and
      // prefetch nothing until the reader looks sequential again.
      stream.generation = ++last_stream_generation_;
      stream.run_bytes = len;
      return;
    }
    stream.run_bytes += len;
    generation = stream.generation;
    resume = stream.next_offset;
    run_bytes = stream.run_bytes;
  }

  // The window starts at the first record at or past `resume` (the chunk
  // containing `resume` mid-chunk was covering in the call that just
  // finished) and spans at most K records. Like on-demand readahead in a
  // kernel page cache, it grows with the sequential run: only records
  // starting within run_bytes of the reader are admitted, but always at
  // least one. Cached or in-flight records inside the window are skipped,
  // never replaced by records past it, so the prefetch frontier stays at
  // most K records ahead of the reader. Everything here runs on the
  // driver thread (tree/chunk-table reads); the tasks capture copies.
  struct Pick {
    ChunkRecord chunk;
    std::vector<ShareLocation> locations;
    std::shared_ptr<Prefetch> prefetch;
  };
  std::vector<Pick> picks;
  std::set<Sha1Digest> picked;
  // FileVersion::Validate guarantees the records tile the file in offset
  // order, so the window's first record is a binary search away.
  const std::vector<ChunkRecord>& chunks = version.chunks;
  const auto first = std::partition_point(
      chunks.begin(), chunks.end(),
      [resume](const ChunkRecord& chunk) { return chunk.offset < resume; });
  const auto last =
      first + std::min<ptrdiff_t>(chunks.end() - first, config_.readahead_chunks);
  for (auto record = first; record != last; ++record) {
    const ChunkRecord& chunk = *record;
    if (record != first && chunk.offset - resume >= run_bytes) {
      break;
    }
    if (picked.count(chunk.id) > 0 || chunk_cache_.Peek(chunk.id) != nullptr) {
      continue;
    }
    auto prefetch = std::make_shared<Prefetch>();
    {
      std::lock_guard<std::mutex> lock(readahead_mutex_);
      if (!readahead_inflight_.emplace(chunk.id, prefetch).second) {
        continue;  // an earlier call is already fetching it
      }
      ++readahead_active_;
    }
    picked.insert(chunk.id);
    Pick pick{chunk, ResolveChunkLocations(chunk.id), std::move(prefetch)};
    AugmentRecordDigests(pick.chunk);
    // Fastest links first, by the learned rate the selector uses, read in
    // order: a prefetch that waits on the slowest CSP arrives after the
    // reader does. (The foreground gather gets the full optimizing
    // selector.)
    const double pick_share_bytes = static_cast<double>(ShareSize(chunk.size, chunk.t));
    std::stable_sort(pick.locations.begin(), pick.locations.end(),
                     [&](const ShareLocation& a, const ShareLocation& b) {
                       return LearnedDownloadRate(a.csp, pick_share_bytes) >
                              LearnedDownloadRate(b.csp, pick_share_bytes);
                     });
    picks.push_back(std::move(pick));
  }

  for (Pick& pick : picks) {
    readahead_issued_->Increment();
    pool_->SubmitBackground([this, name, generation, pick = std::move(pick)] {
      Prefetch& prefetch = *pick.prefetch;
      bool run = false;
      {
        std::lock_guard<std::mutex> lock(readahead_mutex_);
        auto it = streams_.find(name);
        const bool stale = it == streams_.end() || it->second.generation != generation;
        // Stale: the reader seeked. Claimed: a foreground read took it.
        run = prefetch.started = !stale && !prefetch.claimed;
      }
      std::shared_ptr<Bytes> plaintext;
      if (run) {
        plaintext = std::make_shared<Bytes>(pick.chunk.size);
        ChunkReadOptions options;
        options.heal = false;
        ChunkReadResult read;
        if (reader_->Read(pick.chunk, pick.locations, options,
                          MutableByteSpan(*plaintext), read)
                .ok()) {
          chunk_cache_.Put(pick.chunk.id, plaintext);
        } else {
          plaintext.reset();
        }
      }
      (plaintext != nullptr ? readahead_completed_ : readahead_cancelled_)->Increment();
      std::lock_guard<std::mutex> lock(readahead_mutex_);
      prefetch.plaintext = std::move(plaintext);
      prefetch.done = true;
      if (auto it = readahead_inflight_.find(pick.chunk.id);
          it != readahead_inflight_.end() && it->second == pick.prefetch) {
        readahead_inflight_.erase(it);
      }
      readahead_landed_.notify_all();
      if (--readahead_active_ == 0) {
        readahead_idle_.notify_all();
      }
    });
  }
}

std::shared_ptr<CyrusClient::Prefetch> CyrusClient::JoinPrefetch(const Sha1Digest& id) {
  std::lock_guard<std::mutex> lock(readahead_mutex_);
  auto it = readahead_inflight_.find(id);
  if (it == readahead_inflight_.end()) {
    return nullptr;
  }
  std::shared_ptr<Prefetch> prefetch = it->second;
  if (prefetch->started) {
    return prefetch;
  }
  // Still queued: its task may be waiting for this very thread, so take
  // the chunk over rather than wait for it.
  prefetch->claimed = true;
  readahead_inflight_.erase(it);
  return nullptr;
}

std::shared_ptr<const Bytes> CyrusClient::AwaitPrefetch(const Prefetch& prefetch) {
  std::unique_lock<std::mutex> lock(readahead_mutex_);
  readahead_landed_.wait(lock, [&prefetch] { return prefetch.done; });
  return prefetch.plaintext;
}

void CyrusClient::WaitForReadahead() {
  std::unique_lock<std::mutex> lock(readahead_mutex_);
  readahead_idle_.wait(lock, [this] { return readahead_active_ == 0; });
}

CyrusClient::ReadaheadStats CyrusClient::readahead_stats() const {
  ReadaheadStats stats;
  stats.issued = readahead_issued_->value();
  stats.completed = readahead_completed_->value();
  stats.cancelled = readahead_cancelled_->value();
  return stats;
}

void CyrusClient::InvalidateCachedChunks(const std::vector<ChunkRecord>& released,
                                         const std::vector<ChunkRecord>* kept) {
  if (!chunk_cache_.enabled()) {
    return;
  }
  std::set<Sha1Digest> keep;
  if (kept != nullptr) {
    for (const ChunkRecord& chunk : *kept) {
      keep.insert(chunk.id);
    }
  }
  std::set<Sha1Digest> seen;
  for (const ChunkRecord& chunk : released) {
    if (seen.insert(chunk.id).second && keep.count(chunk.id) == 0) {
      chunk_cache_.Invalidate(chunk.id);
    }
  }
}

Result<PutResult> CyrusClient::ImportForeignObject(int csp, std::string_view object_name,
                                                   std::string_view target_name,
                                                   bool delete_original) {
  const std::string object(object_name);
  // The plaintext download is booked but is no part of the Put's report.
  TransferReport download;
  CYRUS_ASSIGN_OR_RETURN(Bytes content,
                         calls_->Download(csp, TransferKind::kGet, object, download));
  CYRUS_ASSIGN_OR_RETURN(PutResult result, Put(target_name, content));
  if (delete_original) {
    // Only remove the plaintext once the CYRUS copy is fully durable
    // (Put published metadata after all shares landed).
    CYRUS_RETURN_IF_ERROR(calls_->Delete(csp, object));
  }
  return result;
}

Status CyrusClient::RebalanceMetadata() {
  TransferReport report;
  return RepublishVersions(nullptr, report);
}

Status CyrusClient::RepublishVersions(const std::set<Sha1Digest>* chunk_ids,
                                      TransferReport& report) {
  for (const FileVersion* version : tree_.AllVersions()) {
    bool affected = chunk_ids == nullptr;
    for (const ChunkRecord& chunk : version->chunks) {
      affected |= chunk_ids != nullptr && chunk_ids->count(chunk.id) > 0;
    }
    // A version with a chunk scrub reclaimed has no layout left to
    // project; its last published metadata stays as it is.
    if (affected && AllChunksTracked(*version)) {
      CYRUS_RETURN_IF_ERROR(metadata_->Publish(*version, report));
    }
  }
  return OkStatus();
}

Result<ScrubReport> CyrusClient::ScrubOnce() {
  obs::TraceBuilder trace(traces_, "ScrubOnce", "");
  CYRUS_ASSIGN_OR_RETURN(ScrubReport report, repair_->ScrubOnce(&trace));
  if (report.repaired_chunks.empty() && report.upgraded_chunks.empty()) {
    return report;
  }
  obs::ScopedSpan republish_span = trace.Span("republish_meta");
  // The engine rewrote the chunk table: republish every version that
  // references a repaired chunk or one with new per-share digests
  // (integrity heals and legacy upgrades), so other clients find the
  // rebuilt shares (the same contract lazy migration honors in Get).
  std::set<Sha1Digest> touched(report.repaired_chunks.begin(),
                               report.repaired_chunks.end());
  touched.insert(report.upgraded_chunks.begin(), report.upgraded_chunks.end());
  CYRUS_RETURN_IF_ERROR(RepublishVersions(&touched, report.transfer));
  return report;
}

std::vector<ChunkHealth> CyrusClient::ScrubScan() { return repair_->Scan(); }

Result<JournalRecoveryReport> CyrusClient::RecoverFromJournal() {
  JournalRecoveryReport report;
  if (journal_ == nullptr) {
    return report;
  }
  const std::vector<JournalIntent> pending = journal_->PendingIntents();
  if (pending.empty()) {
    return report;
  }
  // Pull published metadata first: an interrupted Put may have been synced
  // from another device already, and its shares may now be referenced by a
  // committed chunk - roll-back must never delete those.
  CYRUS_RETURN_IF_ERROR(SyncMetadata().status());

  std::set<std::string> referenced;
  for (const Sha1Digest& chunk_id : chunk_table_.AllChunkIds()) {
    const ChunkEntry* entry = chunk_table_.Find(chunk_id);
    if (entry == nullptr) {
      continue;
    }
    for (const ChunkShare& share : entry->shares) {
      referenced.insert(ShareName(chunk_id, share.share_index, entry->t));
    }
  }
  // Under convergent dedup, share names are content-addressed and shared
  // across users: the object this client's crashed Put journaled may be the
  // very object another tenant's committed metadata (and the deployment-wide
  // ShareIndex) reference. This client's chunk table knows nothing about
  // those references, so protect every object any live index entry records
  // - including zero-ref entries (adoptable until scrub reclaims them
  // through its own erase-then-delete path) and pending-delete tombstones
  // (scrub owns those deletions, not rollback).
  if (config_.share_index != nullptr) {
    for (const auto& [chunk_id, entry] : config_.share_index->Snapshot()) {
      for (const ChunkShare& share : entry.shares) {
        referenced.insert(ShareName(chunk_id, share.share_index, entry.t));
      }
    }
  }
  std::set<std::string> known_ids;
  for (const FileVersion* version : tree_.AllVersions()) {
    known_ids.insert(version->id.ToHex());
  }

  for (const JournalIntent& intent : pending) {
    ++report.intents_seen;
    if (known_ids.count(intent.version_id) > 0) {
      // The version reached the tree (the publish happened, or another
      // device finished the Put): just retire the intent.
      CYRUS_RETURN_IF_ERROR(journal_->Commit(intent.version_id));
      continue;
    }
    if (intent.has_metadata) {
      // Roll forward. The M record was written only after every chunk's
      // quorum was durable, so republishing the metadata completes the Put
      // without touching share data.
      CYRUS_ASSIGN_OR_RETURN(FileVersion wire,
                             FileVersion::Deserialize(intent.meta_wire));
      CYRUS_RETURN_IF_ERROR(wire.Validate());
      FileVersion version = metadata_->ToLocalForm(std::move(wire));
      if (!tree_.Contains(version.id)) {
        CYRUS_RETURN_IF_ERROR(RegisterVersionChunks(version));
        CYRUS_RETURN_IF_ERROR(tree_.Insert(version));
      }
      TransferReport transfer;
      CYRUS_RETURN_IF_ERROR(metadata_->Publish(*tree_.Find(version.id), transfer));
      CYRUS_RETURN_IF_ERROR(journal_->Commit(intent.version_id));
      ++report.rolled_forward;
      continue;
    }
    // Roll back: the Put died before all shares were durable, and no
    // metadata references them. Delete every journaled orphan object.
    bool all_cleaned = true;
    for (const JournalShare& share : intent.shares) {
      if (referenced.count(share.object_name) > 0) {
        continue;  // a committed chunk owns this object now
      }
      auto index = registry_.IndexByName(share.csp_name);
      if (!index.ok()) {
        all_cleaned = false;  // no account at that provider this session
        continue;
      }
      const Status deleted = calls_->Delete(*index, share.object_name);
      if (deleted.ok()) {
        ++report.orphan_shares_deleted;
      } else if (deleted.code() != StatusCode::kNotFound) {
        all_cleaned = false;  // provider unreachable: retry next start
      }
    }
    if (all_cleaned) {
      CYRUS_RETURN_IF_ERROR(journal_->Commit(intent.version_id));
      ++report.rolled_back;
    }
  }
  return report;
}

Status CyrusClient::Delete(std::string_view name) {
  const Sha1Digest parent = ParentFor(name);
  if (IsNullDigest(parent)) {
    return NotFoundError(StrCat("no version of ", name, " to delete"));
  }
  const FileVersion* head = tree_.Find(parent);
  if (head == nullptr || head->deleted) {
    return NotFoundError(StrCat(name, " is already deleted"));
  }
  // Deletion is a marker version: metadata stays (undelete support), chunk
  // shares stay (other files may reference them) - paper §5.4.
  //
  // Copy the head's chunk list before inserting the marker: tree_.Insert
  // may rehash and the `head` pointer is not stable across it.
  const std::vector<ChunkRecord> released_chunks = head->chunks;
  FileVersion marker;
  marker.content_id = ComputeContentId({});
  marker.id = ComputeVersionId(marker.content_id, parent, name);
  marker.prev_id = parent;
  marker.client_id = config_.client_id;
  marker.file_name = std::string(name);
  marker.deleted = true;
  marker.modified_time = now_;
  marker.size = 0;
  CYRUS_RETURN_IF_ERROR(tree_.Insert(marker));
  put_heads_.erase(marker.file_name);
  TransferReport report;
  CYRUS_RETURN_IF_ERROR(metadata_->Publish(marker, report));
  // Only after the marker is durable do the dead head's chunks lose their
  // references; zero-ref dedup chunks become reclaimable by the next scrub.
  {
    // Forget the name's stream: its queued prefetches then find no stream
    // and cancel instead of caching chunks invalidated just below.
    std::lock_guard<std::mutex> lock(readahead_mutex_);
    streams_.erase(std::string(name));
  }
  InvalidateCachedChunks(released_chunks, nullptr);
  if (convergent_writes()) {
    ReleaseChunkRefs(released_chunks);
  }
  return OkStatus();
}

void CyrusClient::ReleaseChunkRefs(const std::vector<ChunkRecord>& chunks) {
  // Mirror of RegisterVersionChunks: one reference per distinct chunk per
  // version, released locally and (for dedup chunks) globally. Failures are
  // swallowed - a release that cannot land leaks at worst one reference,
  // which errs toward keeping data; the ShareIndex clamps at zero so a
  // double release can never free a chunk another user still holds.
  std::set<Sha1Digest> seen;
  for (const ChunkRecord& chunk : chunks) {
    if (!seen.insert(chunk.id).second) {
      continue;
    }
    const ChunkEntry* entry = chunk_table_.Find(chunk.id);
    if (entry == nullptr) {
      continue;
    }
    const bool global = entry->dedup && config_.share_index != nullptr;
    if (!chunk_table_.Release(chunk.id).ok()) {
      continue;  // already at zero locally: the global ref went with it
    }
    if (global) {
      (void)config_.share_index->Release(chunk.id);
    }
    // A chunk at zero references is scrub-reclaimable: its cached
    // plaintext must not outlive the shares.
    const ChunkEntry* after = chunk_table_.Find(chunk.id);
    if (after == nullptr || after->refcount == 0) {
      chunk_cache_.Invalidate(chunk.id);
    }
  }
}

Result<std::vector<FileListing>> CyrusClient::List(std::string_view directory_prefix) {
  CYRUS_RETURN_IF_ERROR(SyncMetadata().status());
  std::vector<FileListing> out;
  for (const std::string& name : tree_.FileNames(/*include_deleted=*/false)) {
    if (!StartsWith(name, directory_prefix)) {
      continue;
    }
    const std::vector<const FileVersion*> live = tree_.LiveHeads(name);
    const FileVersion* newest = VersionTree::Newest(live);
    if (newest == nullptr) {
      continue;
    }
    auto history = tree_.History(newest->id);
    out.push_back(FileListing{name, newest->size, newest->modified_time,
                              history.ok() ? history->size() : 1, live.size() > 1});
  }
  return out;
}

Result<std::vector<const FileVersion*>> CyrusClient::Versions(std::string_view name) {
  const FileVersion* newest = VersionTree::Newest(tree_.Heads(name));
  if (newest == nullptr) {
    return NotFoundError(StrCat("no versions of ", name));
  }
  return tree_.History(newest->id);
}

Status CyrusClient::ResolveConflict(std::string_view name, const Sha1Digest& winner) {
  const std::vector<const FileVersion*> live = tree_.LiveHeads(name);
  if (live.size() < 2) {
    return FailedPreconditionError(StrCat(name, " has no conflict to resolve"));
  }
  bool winner_found = false;
  for (const FileVersion* head : live) {
    winner_found |= head->id == winner;
  }
  if (!winner_found) {
    return InvalidArgumentError(
        StrCat(winner.ToHex(), " is not a conflicting head of ", name));
  }
  // Losing heads are renamed, never discarded: each gets a child version
  // under "<name>.conflict-<shortid>" pointing at the same content.
  TransferReport report;
  for (const FileVersion* head : live) {
    if (head->id == winner) {
      continue;
    }
    FileVersion rename = *head;
    rename.prev_id = head->id;
    rename.client_id = config_.client_id;
    rename.file_name = StrCat(name, ".conflict-", head->id.ToHex().substr(0, 8));
    rename.id = ComputeVersionId(rename.content_id, rename.prev_id, rename.file_name);
    rename.modified_time = now_;
    CYRUS_RETURN_IF_ERROR(RegisterVersionChunks(rename));
    CYRUS_RETURN_IF_ERROR(tree_.Insert(rename));
    CYRUS_RETURN_IF_ERROR(metadata_->Publish(rename, report));
  }
  return OkStatus();
}

}  // namespace cyrus
