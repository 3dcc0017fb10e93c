#include "src/core/metadata_store.h"

#include <algorithm>

#include "src/core/chunk_reader.h"
#include "src/crypto/naming.h"
#include "src/crypto/sha1.h"
#include "src/meta/serialize.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Short content tag of a padded envelope (8 hex chars).
std::string GenerationOf(ByteSpan padded_envelope) {
  return Sha1::Hash(padded_envelope).ToHex().substr(0, 8);
}

// "<base>.<index>.<generation>" cut into views of the name, so a discovery
// pass can skip a known base without allocating.
struct ObjectNameParts {
  std::string_view base;
  uint32_t index = 0;
  std::string_view generation;
};

std::optional<ObjectNameParts> SplitObjectName(std::string_view object) {
  const size_t gen_dot = object.rfind('.');
  if (gen_dot == std::string_view::npos || gen_dot + 1 >= object.size()) {
    return std::nullopt;
  }
  const size_t idx_dot = object.rfind('.', gen_dot - 1);
  if (idx_dot == std::string_view::npos || idx_dot == 0 || idx_dot + 1 >= gen_dot) {
    return std::nullopt;
  }
  uint32_t value = 0;
  for (size_t i = idx_dot + 1; i < gen_dot; ++i) {
    if (object[i] < '0' || object[i] > '9') {
      return std::nullopt;
    }
    value = value * 10 + static_cast<uint32_t>(object[i] - '0');
  }
  return ObjectNameParts{object.substr(0, idx_dot), value, object.substr(gen_dot + 1)};
}

}  // namespace

std::string MetadataStore::ObjectName(const MetaShareId& id) {
  return StrCat(id.base, ".", id.index, ".", id.generation);
}

std::optional<MetaShareId> MetadataStore::ParseObjectName(std::string_view object) {
  std::optional<ObjectNameParts> name = SplitObjectName(object);
  if (!name) {
    return std::nullopt;
  }
  return MetaShareId{std::string(name->base), name->index, std::string(name->generation)};
}

Result<SealedMetadata> MetadataStore::Seal(std::string_view key, uint32_t meta_t,
                                           uint32_t m, ByteSpan payload) {
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec,
                         SecretSharingCodec::Create(key, meta_t, m));
  // A length prefix lets Open trim the secret-sharing padding without
  // knowing the plaintext size.
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  Bytes envelope = w.TakeData();
  envelope.insert(envelope.end(), payload.begin(), payload.end());
  SealedMetadata sealed;
  CYRUS_ASSIGN_OR_RETURN(sealed.shares, codec.Encode(envelope));
  envelope.resize(ShareSize(envelope.size(), meta_t) * meta_t, 0);
  sealed.generation = GenerationOf(envelope);
  return sealed;
}

Result<Bytes> MetadataStore::Open(std::string_view key, uint32_t meta_t,
                                  const std::vector<Share>& shares,
                                  std::string_view generation) {
  if (shares.empty()) {
    return InvalidArgumentError("no metadata shares to decode");
  }
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec decoder,
                         SecretSharingCodec::Create(key, meta_t, kMaxShares));
  auto envelope = decoder.Decode(shares, shares.front().data.size() * meta_t);
  if (!envelope.ok() || GenerationOf(*envelope) != generation) {
    return DataLossError(StrCat("metadata shares do not reconstruct generation ",
                                generation));
  }
  BinaryReader r(*envelope);
  CYRUS_ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
  if (len > r.remaining()) {
    return DataLossError("metadata envelope length exceeds payload");
  }
  return Bytes(envelope->begin() + 4, envelope->begin() + 4 + len);
}

FileVersion MetadataStore::ToWireForm(const FileVersion& version) const {
  FileVersion wire = version;
  wire.shares.clear();
  wire.csp_directory.clear();
  std::map<int32_t, int32_t> local_to_dir;
  auto directory_index = [&](int32_t csp) {
    auto it = local_to_dir.find(csp);
    if (it == local_to_dir.end()) {
      auto name = context_.registry->name(csp);
      it = local_to_dir.emplace(csp, static_cast<int32_t>(wire.csp_directory.size())).first;
      wire.csp_directory.push_back(name.ok() ? *name : StrCat("<unknown-", csp, ">"));
    }
    return it->second;
  };
  // Rows and digests go out in share-index order, so one layout always
  // projects the same bytes, whatever order the table learned it in.
  std::set<Sha1Digest> listed;
  for (ChunkRecord& chunk : wire.chunks) {
    chunk.share_digests.clear();
    const ChunkEntry* entry = context_.chunk_table->Find(chunk.id);
    if (entry == nullptr) {
      continue;
    }
    std::vector<ChunkShare> shares = entry->shares;
    std::stable_sort(shares.begin(), shares.end(),
                     [](const ChunkShare& a, const ChunkShare& b) {
                       return a.share_index < b.share_index;
                     });
    AdoptShareDigests(shares, chunk);
    if (listed.insert(chunk.id).second) {
      for (const ChunkShare& share : shares) {
        wire.shares.push_back(
            ShareLocation{chunk.id, share.share_index, directory_index(share.csp)});
      }
    }
  }
  return wire;
}

FileVersion MetadataStore::ToLocalForm(FileVersion version) const {
  std::vector<int32_t> dir_to_local(version.csp_directory.size(), -1);
  for (size_t k = 0; k < version.csp_directory.size(); ++k) {
    if (auto index = context_.registry->IndexByName(version.csp_directory[k]); index.ok()) {
      dir_to_local[k] = *index;
    }
  }
  for (ShareLocation& loc : version.shares) {
    loc.csp = (loc.csp >= 0 && static_cast<size_t>(loc.csp) < dir_to_local.size())
                  ? dir_to_local[loc.csp]
                  : -1;
  }
  version.csp_directory.clear();
  return version;
}

Status MetadataStore::Publish(const FileVersion& version, TransferReport& report) {
  const uint32_t meta_t = context_.meta_t;
  const std::vector<int> active = context_.registry->ActiveIndices();
  if (active.size() < meta_t) {
    return FailedPreconditionError(StrCat("metadata needs ", meta_t, " CSPs but only ",
                                          active.size(), " are active"));
  }
  const uint32_t m = static_cast<uint32_t>(std::min<size_t>(active.size(), kMaxShares));
  const FileVersion wire = ToWireForm(version);
  CYRUS_RETURN_IF_ERROR(wire.Validate());
  CYRUS_ASSIGN_OR_RETURN(SealedMetadata sealed,
                         Seal(context_.key_string, meta_t, m, wire.Serialize()));
  const std::string base = MetadataName(version.id);
  const bool republish = known_.count(base) > 0;
  size_t uploaded = 0;
  for (uint32_t i = 0; i < m; ++i) {
    const int csp = active[i];
    const std::string object =
        ObjectName(MetaShareId{base, sealed.shares[i].index, sealed.generation});
    if (!context_.calls
             ->Upload(csp, TransferKind::kPutMeta, object, sealed.shares[i].data, report)
             .ok()) {
      continue;  // e.g. quota: the CSP is full, not down
    }
    ++uploaded;
    if (!republish) {
      continue;
    }
    // Make each CSP hold exactly its assigned share of this generation.
    auto existing = context_.calls->List(csp, base);
    if (existing.ok()) {
      for (const ObjectInfo& stale : *existing) {
        if (stale.name != object) {
          (void)context_.calls->Delete(csp, stale.name);
        }
      }
    }
  }
  if (uploaded < meta_t) {
    return UnavailableError(StrCat("metadata for ", version.file_name, " reached only ",
                                   uploaded, " CSPs; need ", meta_t));
  }
  known_.insert(base);
  return OkStatus();
}

std::vector<int> MetadataStore::ListingOrder() const {
  std::vector<std::pair<double, int>> ranked;
  for (int csp : context_.registry->ActiveIndices()) {
    auto profile = context_.registry->profile(csp);
    const double rtt_s = profile.ok() ? profile->rtt_ms / 1e3 : 0.0;
    ranked.emplace_back(rtt_s + context_.monitor->MedianExcessSeconds(csp), csp);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> order;
  for (const auto& [seconds, csp] : ranked) {
    order.push_back(csp);
  }
  return order;
}

bool MetadataStore::ListInto(int csp, double now, std::map<std::string, Generations>& unknown) {
  auto listing = context_.calls->List(csp, "meta-");
  if (!listing.ok()) {
    return false;
  }
  context_.monitor->RecordProbe(csp, now, true);
  for (const ObjectInfo& object : *listing) {
    std::optional<ObjectNameParts> name = SplitObjectName(object.name);
    if (name && !known_.contains(name->base)) {
      unknown[std::string(name->base)][std::string(name->generation)].emplace(name->index,
                                                                               csp);
    }
  }
  return true;
}

std::vector<FileVersion> MetadataStore::Discover() {
  const double now = context_.now();
  if (context_.sync_interval_s > 0 && last_pass_s_ >= 0 &&
      now - last_pass_s_ < context_.sync_interval_s) {
    return {};
  }
  last_pass_s_ = now;

  // A publish succeeds only once meta_t of the C active CSPs hold a share,
  // so any C - meta_t + 1 listings see every published base: list the
  // cheapest ones, skipping past any List that fails.
  const uint32_t meta_t = context_.meta_t;
  const std::vector<int> order = ListingOrder();
  const size_t quorum = order.size() >= meta_t ? order.size() - meta_t + 1 : order.size();
  std::map<std::string, Generations> unknown;  // base -> its share holders
  size_t next = 0;
  size_t listed = 0;
  auto list_until = [&](size_t target) {
    while (listed < target && next < order.size()) {
      listed += ListInto(order[next++], now, unknown) ? 1 : 0;
    }
  };
  list_until(quorum);

  // The unlisted CSPs matter only when a base might decode differently
  // from a full listing: no generation shows meta_t holders, or several
  // generations compete (the one with most holders wins).
  const bool ambiguous = std::any_of(unknown.begin(), unknown.end(), [&](const auto& entry) {
    const Generations& generations = entry.second;
    return generations.size() > 1 || generations.begin()->second.size() < meta_t;
  });
  if (ambiguous) {
    list_until(order.size());
  }

  // The call layer books discovery's downloads; no caller reads their
  // records.
  TransferReport report;
  std::vector<FileVersion> found;
  // Fetches every base in `unknown`, dropping each one that is done; true
  // when some base had no generation reachable.
  auto fetch_all = [&] {
    bool unavailable = false;
    for (auto it = unknown.begin(); it != unknown.end();) {
      Result<FileVersion> version = Fetch(it->first, it->second, report);
      if (version.status().code() == StatusCode::kUnavailable) {
        unavailable = true;  // no generation decodes yet; the next pass retries
        ++it;
        continue;
      }
      // Ingested, or cleanly decoded into an invalid version that no later
      // pass would read differently: either way this base is done.
      known_.insert(it->first);
      if (version.ok()) {
        found.push_back(*std::move(version));
      }
      it = unknown.erase(it);
    }
    return unavailable;
  };
  // A listed holder that fails its download may leave a base short of
  // meta_t shares that the unlisted CSPs would make up.
  if (fetch_all() && next < order.size()) {
    list_until(order.size());
    fetch_all();
  }
  return found;
}

Result<FileVersion> MetadataStore::Fetch(const std::string& base,
                                         const Generations& generations,
                                         TransferReport& report) {
  const uint32_t meta_t = context_.meta_t;
  std::vector<const Generations::value_type*> order;
  for (const auto& entry : generations) {
    order.push_back(&entry);
  }
  std::stable_sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->second.size() > b->second.size();
  });

  for (const auto* entry : order) {
    const auto& [generation, index_to_csp] = *entry;
    if (index_to_csp.size() < meta_t) {
      continue;
    }
    std::vector<Share> shares;
    for (const auto& [index, csp] : index_to_csp) {
      if (shares.size() >= meta_t) {
        break;
      }
      auto data = context_.calls->Download(
          csp, TransferKind::kGetMeta, ObjectName(MetaShareId{base, index, generation}),
          report);
      if (!data.ok()) {
        continue;
      }
      shares.push_back(Share{index, *std::move(data)});
    }
    if (shares.size() < meta_t) {
      continue;
    }
    auto payload = Open(context_.key_string, meta_t, shares, generation);
    if (!payload.ok()) {
      continue;  // inconsistent shares within the group; try the next one
    }
    // The generation matched, so this is exactly what its writer
    // published: a malformed version stays malformed.
    CYRUS_ASSIGN_OR_RETURN(FileVersion version, FileVersion::Deserialize(*payload));
    if (MetadataName(version.id) != base) {
      return DataLossError(StrCat("metadata ", base, " decodes to mismatched version id"));
    }
    version = ToLocalForm(std::move(version));
    CYRUS_RETURN_IF_ERROR(version.Validate());
    return version;
  }
  return UnavailableError(StrCat("metadata ", base, ": no generation has ", meta_t,
                                 " consistent shares reachable"));
}

void MetadataStore::Reset(std::set<std::string, std::less<>> known_bases) {
  known_ = std::move(known_bases);
  last_pass_s_ = -1.0;
}

}  // namespace cyrus
