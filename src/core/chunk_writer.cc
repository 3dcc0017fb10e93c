#include "src/core/chunk_writer.h"

#include <algorithm>

#include "src/crypto/naming.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Ring picks one share may try before the write gives up on it.
constexpr int kPlacementAttempts = 3;

}  // namespace

Result<int> ChunkWriter::PlaceOne(const Sha1Digest& chunk_id, uint32_t index, uint32_t t,
                                  ByteSpan share, std::vector<int>& exclude,
                                  const std::string& intent, TransferReport& report) {
  const std::string object = ShareName(chunk_id, index, t);
  for (int attempt = 0; attempt < kPlacementAttempts; ++attempt) {
    auto pick = context_.ring->SelectCspsExcluding(chunk_id, 1, exclude);
    if (!pick.ok()) {
      break;  // no CSP left to try
    }
    // A tried CSP is never picked again for this chunk: a timed-out upload
    // may have landed, and a second share on one provider weakens the
    // placement either way.
    const int target = pick->front();
    exclude.push_back(target);
    if (context_.journal) {
      CYRUS_RETURN_IF_ERROR(context_.journal(intent, target, object));
    }
    auto conn = context_.registry->connector(target);
    const Status upload =
        conn.ok() ? UploadWithRetry(**conn, TransferKind::kPut, target, object, share,
                                    context_.retry, report)
                  : conn.status();
    if (upload.ok()) {
      context_.monitor->RecordProbe(target, context_.now(), true);
      return target;
    }
    context_.on_transfer_failure(target, upload);
  }
  return -1;
}

Result<std::vector<ChunkShare>> ChunkWriter::Scatter(const SecretSharingCodec& codec,
                                                     const Sha1Digest& chunk_id,
                                                     ByteSpan chunk, uint32_t quorum,
                                                     const std::string& intent,
                                                     TransferReport& report,
                                                     obs::TraceBuilder& trace) {
  const uint32_t n = codec.n();
  obs::ScopedSpan encode_span = trace.Span("encode");
  encode_span.AddBytes(chunk.size());
  // Encode share i straight into a pooled, 32B-aligned upload buffer
  // (share index i is row i of the dispersal matrix). The handles live to
  // the end of the scatter - connectors read the spans during upload.
  const size_t share_len = ShareSize(chunk.size(), codec.t());
  std::vector<PooledBuffer> buffers;
  std::vector<MutableByteSpan> spans(n);
  buffers.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    buffers.push_back(context_.buffers->Acquire(std::max<size_t>(share_len, 1)));
    spans[i] = buffers[i].span(share_len);
  }
  CYRUS_RETURN_IF_ERROR(codec.EncodeInto(chunk, spans));
  encode_span.End();

  obs::ScopedSpan place_span = trace.Span("place");
  auto place = [&](uint32_t m) {
    return context_.cluster_aware ? context_.ring->SelectCspsClusterAware(chunk_id, m)
                                  : context_.ring->SelectCsps(chunk_id, m);
  };
  Result<std::vector<int>> placement = place(n);
  // Fewer eligible CSPs than n - a provider was indicted after the caller
  // sized its codec. Scatter onto the widest feasible placement that still
  // reaches the quorum; the unplaced shares become repair debt instead of
  // failing the write.
  for (uint32_t m = n - 1; !placement.ok() && m >= quorum && m >= 1 &&
                           placement.status().code() == StatusCode::kFailedPrecondition;
       --m) {
    placement = place(m);
  }
  CYRUS_RETURN_IF_ERROR(placement.status());
  const std::vector<int>& targets = *placement;
  const uint32_t placed = static_cast<uint32_t>(targets.size());
  place_span.End();
  for (uint32_t i = 0; i < placed && context_.journal; ++i) {
    CYRUS_RETURN_IF_ERROR(
        context_.journal(intent, targets[i], ShareName(chunk_id, i, codec.t())));
  }

  obs::ScopedSpan upload_span = trace.Span("upload");
  for (const MutableByteSpan& span : spans) {
    upload_span.AddBytes(span.size());
  }
  // First pass: every placed share uploads concurrently on the transfer
  // pool (the prototype's per-connector threads, §5.3). Targets are
  // distinct, and connectors are thread-safe. Transient errors are retried
  // in place before the failover below re-places the share.
  std::vector<Status> first(placed, InternalError("no upload attempted"));
  std::vector<TransferReport> first_reports(placed);
  auto upload = [&](size_t i) {
    const std::string object = ShareName(chunk_id, static_cast<uint32_t>(i), codec.t());
    auto conn = context_.registry->connector(targets[i]);
    if (!conn.ok()) {
      first[i] = conn.status();
      first_reports[i].records.push_back(
          TransferRecord{TransferKind::kPut, targets[i], object, spans[i].size(), false});
      return;
    }
    first[i] = UploadWithRetry(**conn, TransferKind::kPut, targets[i], object, spans[i],
                               context_.retry, first_reports[i]);
  };
  ThreadPool::TaskGroup uploads;
  if (context_.pool != nullptr && placed > 1) {
    for (uint32_t i = 0; i < placed; ++i) {
      context_.pool->Submit(uploads, [&upload, i] { upload(i); });
    }
  } else {
    for (uint32_t i = 0; i < placed; ++i) {
      upload(i);
    }
  }
  // Meanwhile this thread hashes every placed share in one multi-lane
  // pass; uploads and hashing only read the share bytes. A failover below
  // uploads the same bytes, so its digest is this one too.
  std::vector<ByteSpan> placed_spans(spans.begin(), spans.begin() + placed);
  std::vector<Sha1Digest> digests(placed);
  Sha1::HashMany(placed_spans, digests);
  if (context_.pool != nullptr) {
    context_.pool->WaitGroup(uploads);
  }

  // Then, in index order, bookkeeping and failover. A failover avoids every
  // CSP holding a share, including later shares whose first upload
  // succeeded.
  std::vector<int> held;
  for (uint32_t i = 0; i < placed; ++i) {
    if (first[i].ok()) {
      held.push_back(targets[i]);
    }
  }
  std::vector<ChunkShare> shares;
  for (uint32_t i = 0; i < placed; ++i) {
    report.Append(first_reports[i]);
    int target = targets[i];
    if (first[i].ok()) {
      context_.monitor->RecordProbe(target, context_.now(), true);
      shares.push_back(ChunkShare{i, target, digests[i]});
    } else {
      context_.on_transfer_failure(target, first[i]);
      std::vector<int> exclude = held;
      exclude.push_back(target);
      CYRUS_ASSIGN_OR_RETURN(target, PlaceOne(chunk_id, i, codec.t(), spans[i], exclude,
                                              intent, report));
      if (target < 0) {
        continue;
      }
      held.push_back(target);
      shares.push_back(ChunkShare{i, target, digests[i]});
    }
  }
  if (shares.size() < quorum) {
    return UnavailableError(StrCat("only ", shares.size(), " of ", n,
                                   " shares uploaded; need at least ", quorum));
  }
  return shares;
}

Result<std::vector<ChunkShare>> ChunkWriter::Extend(const SecretSharingCodec& codec,
                                                    const Sha1Digest& chunk_id,
                                                    ByteSpan plaintext,
                                                    uint32_t first_index, uint32_t count,
                                                    std::vector<int> exclude,
                                                    TransferReport& report) {
  // One pooled buffer serves every share: each is uploaded and hashed
  // before the next is encoded over it.
  const size_t share_len = ShareSize(plaintext.size(), codec.t());
  PooledBuffer buffer = context_.buffers->Acquire(std::max<size_t>(share_len, 1));
  const MutableByteSpan share = buffer.span(share_len);
  std::vector<ChunkShare> shares;
  for (uint32_t index = first_index; index < codec.n() && index - first_index < count;
       ++index) {
    CYRUS_RETURN_IF_ERROR(codec.EncodeShareInto(plaintext, index, share));
    CYRUS_ASSIGN_OR_RETURN(
        const int csp, PlaceOne(chunk_id, index, codec.t(), share, exclude, {}, report));
    if (csp < 0) {
      break;  // no CSP left; the rest waits until CSPs return
    }
    shares.push_back(ChunkShare{index, csp, Sha1::Hash(share)});
  }
  return shares;
}

}  // namespace cyrus
