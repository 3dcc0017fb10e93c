// (t, n) secret sharing via a keyed, non-systematic Reed-Solomon erasure
// code (paper §5.1, Figure 5).
//
// A chunk of B bytes is split into t data rows of ceil(B / t) bytes each
// (zero-padded). The n shares are the rows of M * D, where D stacks the t
// data rows and M is an n x t dispersal matrix. M is non-systematic: no
// share contains plaintext bytes. M is keyed: its evaluation points and a
// per-column mixing vector are derived from the user's key string, so
// decoding requires both t shares and the key (paper §7.1).
//
// Any t of the n shares reconstruct the chunk (the corresponding t rows of
// M form an invertible matrix because the evaluation points are distinct).
#ifndef SRC_RS_SECRET_SHARING_H_
#define SRC_RS_SECRET_SHARING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/rs/matrix.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

// One share: the erasure-code row index plus the coded bytes. The index is
// needed to select the decoding rows; on the wire it is hidden inside the
// share *name* (src/crypto/naming.h), never stored in plaintext at a CSP.
struct Share {
  uint32_t index = 0;
  Bytes data;
};

// Size of each share for a chunk of `chunk_size` bytes under parameter t.
// Shares are ~chunk/t, so total stored data is ~(n/t) * chunk (paper §3.2).
size_t ShareSize(size_t chunk_size, uint32_t t);

class SecretSharingCodec {
 public:
  // Requires 1 <= t <= n <= 255. The key string seeds the dispersal matrix.
  static Result<SecretSharingCodec> Create(std::string_view key_string, uint32_t t,
                                           uint32_t n);

  uint32_t t() const { return t_; }
  uint32_t n() const { return n_; }

  // Encodes a chunk into n shares of ShareSize(chunk.size(), t) bytes each.
  // The chunk may be empty (shares are then empty too).
  Result<std::vector<Share>> Encode(ByteSpan chunk) const;

  // Encodes into caller-provided destinations - one span per share index,
  // each exactly ShareSize(chunk.size(), t) bytes. This is the zero-copy
  // entry the transfer path uses: shares are produced directly inside the
  // pooled buffers the connectors upload (src/util/buffer_pool.h), and the
  // matrix application is cache-blocked so the chunk streams through L1
  // once per block instead of once per (row, share) pair. Destinations are
  // zeroed first and must not alias the chunk or each other.
  Status EncodeInto(ByteSpan chunk, std::span<const MutableByteSpan> dsts) const;

  // Single-share variant of EncodeInto (index < n, dst exactly
  // ShareSize(chunk.size(), t) bytes) - the repair engine re-encodes lost
  // shares straight into pooled upload buffers with this.
  Status EncodeShareInto(ByteSpan chunk, uint32_t index, MutableByteSpan dst) const;

  // Reconstructs the original chunk from any >= t shares. `chunk_size` is
  // the original length (tracked in the ChunkMap); it trims the padding.
  // Fails with kDataLoss if fewer than t distinct shares are given, and
  // with kInvalidArgument on inconsistent share sizes or bad indices.
  Result<Bytes> Decode(const std::vector<Share>& shares, size_t chunk_size) const;

  // Decode variant writing the reconstructed chunk into a caller-provided
  // buffer of exactly the original chunk size (Get decodes every chunk
  // straight into its slice of the assembled file, skipping the per-chunk
  // allocation and the assemble copy).
  Status DecodeInto(const std::vector<Share>& shares, MutableByteSpan chunk) const;

  // Error-correcting decode (paper §5.1 footnote 9: "R-S coding ... can
  // recover a chunk's data even if there are errors in the t shares").
  // Tolerates up to floor((shares - t) / 2) *corrupted* shares (bit rot, a
  // tampering provider) without knowing which ones: candidate t-subsets
  // are decoded and validated by re-encoding against the remaining shares;
  // a decode agreeing with >= shares - e_max inputs is the unique codeword
  // within the code's error-correction radius (the same guarantee
  // Berlekamp-Welch gives, by exhaustive search - fine for the paper's
  // n <= 11 operating range). Reports which shares were corrupted so the
  // caller can repair them.
  struct ErrorDecodeResult {
    Bytes chunk;
    std::vector<uint32_t> corrupted_indices;
  };
  Result<ErrorDecodeResult> DecodeWithErrorCorrection(const std::vector<Share>& shares,
                                                      size_t chunk_size) const;

  // The n x t dispersal matrix (exposed for tests and documentation).
  const GfMatrix& dispersal_matrix() const { return matrix_; }

 private:
  SecretSharingCodec(uint32_t t, uint32_t n, GfMatrix matrix)
      : t_(t), n_(n), matrix_(std::move(matrix)) {}

  uint32_t t_;
  uint32_t n_;
  GfMatrix matrix_;
};

}  // namespace cyrus

#endif  // SRC_RS_SECRET_SHARING_H_
