// SHA-1 (FIPS 180-4), implemented from scratch.
//
// CYRUS uses SHA-1 exactly as the paper does: as a content identifier for
// files and chunks, as the input to consistent hashing for share placement,
// and as H in the share naming scheme H'(index, H(chunk)). It is used for
// content addressing, not collision-resistant signing.
//
// Every Put hashes each byte several times (whole file, chunk, share
// digests), so the compression function is dispatched once per process:
// the x86 SHA extensions (SHA-NI) when the CPU has them, a portable scalar
// loop otherwise. Both produce bit-identical digests.
#ifndef SRC_CRYPTO_SHA1_H_
#define SRC_CRYPTO_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace cyrus {

// A 160-bit digest. Comparable and hashable so it can key maps.
struct Sha1Digest {
  std::array<uint8_t, 20> bytes{};

  std::string ToHex() const;

  // First 8 bytes interpreted big-endian; used to place digests on the
  // consistent-hash ring.
  uint64_t Prefix64() const;

  friend bool operator==(const Sha1Digest& a, const Sha1Digest& b) = default;
  friend auto operator<=>(const Sha1Digest& a, const Sha1Digest& b) = default;
};

struct Sha1DigestHash {
  size_t operator()(const Sha1Digest& d) const {
    return static_cast<size_t>(d.Prefix64());
  }
};

// SHA-1 compression of `count` consecutive 64-byte blocks into `state`
// (big-endian message words, no padding). Sha1 picks one per process; both
// are exposed so the differential test and the micro bench can compare them.
void Sha1BlocksScalar(uint32_t state[5], const uint8_t* blocks, size_t count);
// Requires Sha1ShaNiSupported().
void Sha1BlocksShaNi(uint32_t state[5], const uint8_t* blocks, size_t count);
// True when this build targets x86 and the CPU has the SHA extensions.
bool Sha1ShaNiSupported();

// Incremental SHA-1. Usage: Sha1 h; h.Update(a); h.Update(b); h.Finish().
class Sha1 {
 public:
  Sha1();

  void Update(ByteSpan data);
  void Update(std::string_view text) { Update(AsByteSpan(text)); }

  // Finalizes and returns the digest. The object must not be reused after.
  Sha1Digest Finish();

  // One-shot convenience.
  static Sha1Digest Hash(ByteSpan data);
  static Sha1Digest Hash(std::string_view text) { return Hash(AsByteSpan(text)); }

 private:
  std::array<uint32_t, 5> h_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace cyrus

#endif  // SRC_CRYPTO_SHA1_H_
