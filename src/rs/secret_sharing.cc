#include "src/rs/secret_sharing.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/naming.h"
#include "src/obs/metrics.h"
#include "src/rs/galois.h"
#include "src/rs/galois_kernels.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Cache block for the matrix application: the encode walks the chunk in
// strips of this many share bytes, producing every output row for a strip
// before moving on, so the strip (plus one output strip per row) lives in
// L1/L2 across the whole column pass instead of being re-fetched t times.
constexpr size_t kCodecBlockBytes = 32 * 1024;

obs::Counter* EncodeBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_codec_encode_bytes_total", {},
      "Chunk bytes pushed through the RS encoder");
  return counter;
}

obs::Counter* DecodeBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_codec_decode_bytes_total", {},
      "Chunk bytes reconstructed by the RS decoder");
  return counter;
}

}  // namespace

size_t ShareSize(size_t chunk_size, uint32_t t) {
  assert(t > 0);
  return (chunk_size + t - 1) / t;
}

Result<SecretSharingCodec> SecretSharingCodec::Create(std::string_view key_string,
                                                      uint32_t t, uint32_t n) {
  if (t < 1 || n < t || n > 255) {
    return InvalidArgumentError(
        StrCat("secret sharing requires 1 <= t <= n <= 255, got t=", t, " n=", n));
  }
  // Keyed Vandermonde rows on distinct nonzero points...
  const std::vector<uint8_t> points = DeriveEvaluationPoints(key_string, n);
  GfMatrix matrix = GfMatrix::Vandermonde(points, t);
  // ...then keyed column mixing. Scaling column j by a nonzero g_j keeps
  // every t-row submatrix invertible (det scales by prod(g_j) != 0) while
  // making the matrix itself depend on the key beyond the points.
  const std::vector<uint8_t> mix = DeriveDispersalVector(key_string, t);
  for (uint32_t j = 0; j < t; ++j) {
    matrix.ScaleColumn(j, mix[j]);
  }
  return SecretSharingCodec(t, n, std::move(matrix));
}

Result<std::vector<Share>> SecretSharingCodec::Encode(ByteSpan chunk) const {
  const size_t share_len = ShareSize(chunk.size(), t_);
  std::vector<Share> shares(n_);
  std::vector<MutableByteSpan> dsts(n_);
  for (uint32_t i = 0; i < n_; ++i) {
    shares[i].index = i;
    shares[i].data.resize(share_len);
    dsts[i] = MutableByteSpan(shares[i].data.data(), share_len);
  }
  CYRUS_RETURN_IF_ERROR(EncodeInto(chunk, dsts));
  return shares;
}

Status SecretSharingCodec::EncodeInto(ByteSpan chunk,
                                      std::span<const MutableByteSpan> dsts) const {
  const size_t share_len = ShareSize(chunk.size(), t_);
  if (dsts.size() != n_) {
    return InvalidArgumentError(
        StrCat("EncodeInto needs ", n_, " destinations, got ", dsts.size()));
  }
  for (const MutableByteSpan& dst : dsts) {
    if (dst.size() != share_len) {
      return InvalidArgumentError(StrCat("destination size ", dst.size(),
                                         " does not match share size ", share_len));
    }
  }
  if (share_len == 0) {
    return OkStatus();
  }
  EncodeBytesCounter()->Increment(chunk.size());

  const GaloisKernels& kernels = ActiveGaloisKernels();
  // Column-major copy of the dispersal matrix: the fused kernel consumes
  // one column (all n coefficients of source row j) contiguously.
  std::vector<uint8_t> columns(static_cast<size_t>(t_) * n_);
  for (uint32_t j = 0; j < t_; ++j) {
    for (uint32_t i = 0; i < n_; ++i) {
      columns[static_cast<size_t>(j) * n_ + i] = matrix_.At(i, j);
    }
  }

  // Data row j is the contiguous slice chunk[j*L, (j+1)*L), zero-padded;
  // share_i += M[i][j] * row_j. Blocked: for each strip of the share, every
  // present source row is applied to all n outputs before the strip
  // advances (row lengths are non-increasing, so a row that ends before
  // this strip ends them all). Row 0 always spans the full share (L =
  // ceil(size/t) <= size), so it *initializes* each output strip with
  // mul_row instead of accumulating into a memset: the shares make exactly
  // one write pass through memory, and rows j >= 1 hit strips that are
  // still cache-hot from that first pass. Padded tails past a short row's
  // end would only ever receive zero contributions, so skipping them leaves
  // the row-0 product in place - exactly the right bytes.
  std::vector<uint8_t*> dst_ptrs(n_);
  for (size_t block = 0; block < share_len; block += kCodecBlockBytes) {
    const size_t strip = std::min(kCodecBlockBytes, share_len - block);
    for (uint32_t i = 0; i < n_; ++i) {
      dst_ptrs[i] = dsts[i].data() + block;
      kernels.mul_row(columns[i], chunk.data() + block, dst_ptrs[i], strip);
    }
    for (uint32_t j = 1; j < t_; ++j) {
      const size_t begin = static_cast<size_t>(j) * share_len;
      if (begin >= chunk.size()) {
        break;  // fully padded rows contribute nothing
      }
      const size_t row_len = std::min(share_len, chunk.size() - begin);
      if (block >= row_len) {
        break;
      }
      const size_t len = std::min(kCodecBlockBytes, row_len - block);
      kernels.encode_block(&columns[static_cast<size_t>(j) * n_], n_,
                           chunk.data() + begin + block, len, dst_ptrs.data());
    }
  }
  return OkStatus();
}

Status SecretSharingCodec::EncodeShareInto(ByteSpan chunk, uint32_t index,
                                           MutableByteSpan dst) const {
  if (index >= n_) {
    return InvalidArgumentError(StrCat("share index ", index, " out of range for n=", n_));
  }
  const size_t share_len = ShareSize(chunk.size(), t_);
  if (dst.size() != share_len) {
    return InvalidArgumentError(StrCat("destination size ", dst.size(),
                                       " does not match share size ", share_len));
  }
  if (share_len == 0) {
    return OkStatus();
  }
  // Row 0 always spans the full share, so it seeds the destination with
  // MulRow (no memset pass); later, shorter rows accumulate on top and
  // their padded tails correctly keep the earlier products.
  Galois::MulRow(matrix_.At(index, 0), chunk.subspan(0, share_len),
                 MutableByteSpan(dst.data(), share_len));
  for (uint32_t j = 1; j < t_; ++j) {
    const size_t begin = static_cast<size_t>(j) * share_len;
    if (begin >= chunk.size()) {
      break;
    }
    const size_t len = std::min(share_len, chunk.size() - begin);
    Galois::MulAddRow(matrix_.At(index, j), chunk.subspan(begin, len),
                      MutableByteSpan(dst.data(), len));
  }
  return OkStatus();
}

Result<Bytes> SecretSharingCodec::Decode(const std::vector<Share>& shares,
                                         size_t chunk_size) const {
  Bytes chunk(chunk_size, 0);
  CYRUS_RETURN_IF_ERROR(DecodeInto(shares, MutableByteSpan(chunk)));
  return chunk;
}

Status SecretSharingCodec::DecodeInto(const std::vector<Share>& shares,
                                      MutableByteSpan chunk) const {
  const size_t chunk_size = chunk.size();
  // Collect the first t distinct, in-range share indices.
  std::vector<size_t> row_indices;
  std::vector<const Bytes*> inputs;
  for (const Share& share : shares) {
    if (share.index >= n_) {
      return InvalidArgumentError(
          StrCat("share index ", share.index, " out of range for n=", n_));
    }
    if (std::find(row_indices.begin(), row_indices.end(), share.index) !=
        row_indices.end()) {
      continue;  // duplicate index: ignore
    }
    row_indices.push_back(share.index);
    inputs.push_back(&share.data);
    if (row_indices.size() == t_) {
      break;
    }
  }
  if (row_indices.size() < t_) {
    return DataLossError(StrCat("need ", t_, " distinct shares to decode, have ",
                                row_indices.size()));
  }

  const size_t share_len = ShareSize(chunk_size, t_);
  for (const Bytes* input : inputs) {
    if (input->size() != share_len) {
      return InvalidArgumentError(StrCat("share size ", input->size(),
                                         " does not match expected ", share_len));
    }
  }

  if (chunk_size == 0) {
    return OkStatus();
  }
  DecodeBytesCounter()->Increment(chunk_size);

  CYRUS_ASSIGN_OR_RETURN(GfMatrix decode, matrix_.SelectRows(row_indices).Inverted());

  // Row j of the original data = sum_k decode[j][k] * share_k; write it
  // directly into its slice of the output, trimming the padded tail. The
  // strip loop keeps the t input strips hot in cache across every output
  // row instead of streaming each full share t times (row lengths are
  // non-increasing, so a row ending before this strip ends them all). The
  // k = 0 term seeds each output strip with mul_row, so the chunk is
  // written in a single pass with no memset prepass.
  const GaloisKernels& kernels = ActiveGaloisKernels();
  for (size_t block = 0; block < share_len; block += kCodecBlockBytes) {
    for (uint32_t j = 0; j < t_; ++j) {
      const size_t begin = static_cast<size_t>(j) * share_len;
      if (begin >= chunk_size) {
        break;
      }
      const size_t row_len = std::min(share_len, chunk_size - begin);
      if (block >= row_len) {
        break;
      }
      const size_t len = std::min(kCodecBlockBytes, row_len - block);
      uint8_t* out = chunk.data() + begin + block;
      kernels.mul_row(decode.At(j, 0), inputs[0]->data() + block, out, len);
      for (uint32_t k = 1; k < t_; ++k) {
        kernels.mul_add_row(decode.At(j, k), inputs[k]->data() + block, out, len);
      }
    }
  }
  return OkStatus();
}

Result<SecretSharingCodec::ErrorDecodeResult>
SecretSharingCodec::DecodeWithErrorCorrection(const std::vector<Share>& shares,
                                              size_t chunk_size) const {
  // Deduplicate by index. Wrong-sized shares are plainly damaged: record
  // them as corrupted and keep going with the rest.
  std::vector<const Share*> inputs;
  std::vector<uint32_t> size_corrupted;
  {
    std::vector<uint32_t> seen;
    const size_t share_len = ShareSize(chunk_size, t_);
    for (const Share& share : shares) {
      if (share.index >= n_) {
        return InvalidArgumentError(
            StrCat("share index ", share.index, " out of range for n=", n_));
      }
      if (std::find(seen.begin(), seen.end(), share.index) != seen.end()) {
        continue;
      }
      seen.push_back(share.index);
      if (share.data.size() != share_len) {
        size_corrupted.push_back(share.index);
        continue;
      }
      inputs.push_back(&share);
    }
  }
  const size_t m = inputs.size();
  if (m < t_) {
    return DataLossError(
        StrCat("need ", t_, " distinct shares to decode, have ", m));
  }
  const size_t e_max = (m - t_) / 2;

  // Enumerate t-subsets in lexicographic order; a correct subset's decode
  // re-encodes to agree with every uncorrupted share (>= m - e_max inputs).
  std::vector<size_t> pick(t_);
  for (size_t k = 0; k < t_; ++k) {
    pick[k] = k;
  }
  size_t combinations = 1;
  for (size_t k = 0; k < t_; ++k) {
    combinations = combinations * (m - k) / (k + 1);
    if (combinations > 20000) {
      return UnimplementedError(
          "error-correcting decode supports small n only (C(shares, t) too large)");
    }
  }

  for (;;) {
    std::vector<Share> subset;
    for (size_t k : pick) {
      subset.push_back(*inputs[k]);
    }
    auto chunk = Decode(subset, chunk_size);
    if (chunk.ok()) {
      // Validate by re-encoding and counting agreeing input shares.
      auto reencoded = Encode(*chunk);
      if (reencoded.ok()) {
        std::vector<uint32_t> corrupted;
        size_t agree = 0;
        for (const Share* input : inputs) {
          if ((*reencoded)[input->index].data == input->data) {
            ++agree;
          } else {
            corrupted.push_back(input->index);
          }
        }
        if (agree >= m - e_max) {
          ErrorDecodeResult result;
          result.chunk = *std::move(chunk);
          result.corrupted_indices = std::move(corrupted);
          result.corrupted_indices.insert(result.corrupted_indices.end(),
                                          size_corrupted.begin(), size_corrupted.end());
          return result;
        }
      }
    }
    // Next lexicographic t-subset of [0, m).
    size_t k = t_;
    while (k > 0 && pick[k - 1] == m - t_ + (k - 1)) {
      --k;
    }
    if (k == 0) {
      break;
    }
    ++pick[k - 1];
    for (size_t j = k; j < t_; ++j) {
      pick[j] = pick[j - 1] + 1;
    }
  }
  return DataLossError(StrCat("no consistent decode: more than ", e_max,
                              " of ", m, " shares are corrupted"));
}

}  // namespace cyrus
