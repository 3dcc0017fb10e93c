// Rabin fingerprinting by random polynomials (Rabin 1981), the rolling hash
// CYRUS uses for content-defined chunk boundaries (paper §5.1).
//
// The fingerprint of a byte window is the residue of the window, viewed as a
// polynomial over GF(2), modulo a fixed degree-63 irreducible polynomial.
// Appending a byte and expiring the oldest byte are O(1) via two
// precomputed 256-entry tables.
#ifndef SRC_CHUNKER_RABIN_H_
#define SRC_CHUNKER_RABIN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/util/bytes.h"

namespace cyrus {

class RabinFingerprint {
 public:
  // Degree-63 irreducible polynomial over GF(2) (x^63 + x^62 + ... form,
  // bit i = coefficient of x^i; the x^64 leading term is implicit).
  static constexpr uint64_t kDefaultPolynomial = 0xbfe6b8a5bf378d83ULL;

  // window_size is the number of bytes the rolling window covers.
  explicit RabinFingerprint(size_t window_size = 48,
                            uint64_t polynomial = kDefaultPolynomial);

  // Feeds one byte, sliding the window. Returns the new fingerprint.
  uint64_t Roll(uint8_t byte);

  // The two halves of Roll as pure functions of a fingerprint value, for
  // callers that keep the window in their own buffer (Chunker::Split reads
  // the expiring byte straight from its input). Expire removes `oldest`,
  // the byte window_size positions back; Append shifts in `byte`.
  uint64_t Expire(uint64_t fp, uint8_t oldest) const { return fp ^ out_table_[oldest]; }
  uint64_t Append(uint64_t fp, uint8_t byte) const {
    return ((fp << 8) | byte) ^ mod_table_[fp >> 56];
  }

  uint64_t fingerprint() const { return fingerprint_; }
  size_t window_size() const { return window_size_; }

  // Resets to the empty-window state.
  void Reset();

  // Fingerprint of a whole buffer fed through a fresh window (convenience
  // for tests; equals the final fingerprint after rolling every byte).
  static uint64_t Of(ByteSpan data, size_t window_size = 48,
                     uint64_t polynomial = kDefaultPolynomial);

 private:
  void BuildTables();

  uint64_t polynomial_;
  size_t window_size_;
  uint64_t fingerprint_ = 0;
  size_t window_pos_ = 0;
  std::vector<uint8_t> window_;
  // mod_table_[b]: reduction of b * x^64; out_table_[b]: contribution of a
  // byte leaving the window (b * x^{8*window_size} mod P).
  std::array<uint64_t, 256> mod_table_{};
  std::array<uint64_t, 256> out_table_{};
};

}  // namespace cyrus

#endif  // SRC_CHUNKER_RABIN_H_
