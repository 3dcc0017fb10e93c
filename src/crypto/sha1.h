// SHA-1 (FIPS 180-4), implemented from scratch.
//
// CYRUS uses SHA-1 exactly as the paper does: as a content identifier for
// files and chunks, as the input to consistent hashing for share placement,
// and as H in the share naming scheme H'(index, H(chunk)). It is used for
// content addressing, not collision-resistant signing.
//
// Every Put hashes each byte more than once (chunk id, share digests), so
// the compression function is dispatched once per process:
// the x86 SHA extensions (SHA-NI) when the CPU has them, a portable scalar
// loop otherwise. Both produce bit-identical digests.
//
// One SHA-NI stream is throughput-bound, so interleaving streams does not
// help; independent messages do. Sha1::HashMany hashes a batch of them
// kSha1Lanes at a time with one AVX-512VL kernel: each 32-bit lane of a
// 256-bit vector carries one message's state (vprold for the rotations,
// vpternlogd for the round functions). All busy lanes advance by the
// fewest whole blocks any of them has left; a lane that runs out finishes
// its tail and padding through an ordinary Sha1 seeded with its state, and
// the next input takes the lane. Once fewer than kSha1MinLanes lanes are
// busy, the rest finish on the dispatched single-stream path; without
// AVX-512VL, HashMany is a loop of Hash. Digests are bit-identical either
// way. Callers use it where several messages are in hand:
// ChunkWriter::Scatter hashes a chunk's n shares in one call,
// ChunkPlanner hashes a fresh file's chunk ids in strided groups (one on
// each pool thread, or one inline), and
// ChunkReader::ReadGroup verifies the shares a group of chunks fetched in
// one call. One chunk brings only t = 2 shares to verify, too few lanes
// to pay, so a Get reads its chunks in groups of kSha1Lanes / t, sorted by
// size so that a group's lanes drain together.
#ifndef SRC_CRYPTO_SHA1_H_
#define SRC_CRYPTO_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

// Messages one multi-lane pass hashes, and the fewest busy lanes it keeps
// running for; below that HashMany finishes on the single-stream path.
inline constexpr size_t kSha1Lanes = 8;
inline constexpr size_t kSha1MinLanes = 3;
// SHA-1 compression of `count` consecutive 64-byte blocks for each of
// kSha1Lanes independent messages: lane k reads blocks[k] and updates
// state[0..4][k]. Every lane reads `count` whole blocks; a caller with
// idle lanes points them at a busy lane's blocks and ignores their state.
// Requires Sha1MultiLaneSupported().
void Sha1BlocksMultiLane(uint32_t state[5][kSha1Lanes],
                         const uint8_t* const blocks[kSha1Lanes], size_t count);
// True when this build targets x86 and the CPU has AVX-512F and AVX-512VL.
bool Sha1MultiLaneSupported();

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

  // out[i] = Hash(inputs[i]) for every i, several messages per pass (see
  // the header comment). The spans must be the same length.
  static void HashMany(std::span<const ByteSpan> inputs, std::span<Sha1Digest> out);

 private:
  // Resumes a message whose first `bytes` (a whole number of blocks) left
  // the chaining value `h`.
  Sha1(const std::array<uint32_t, 5>& h, uint64_t bytes);

  std::array<uint32_t, 5> h_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace cyrus

#endif  // SRC_CRYPTO_SHA1_H_
