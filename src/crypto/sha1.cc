#include "src/crypto/sha1.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

#include "src/util/hex.h"

#if defined(__x86_64__) || defined(__i386__)
#define CYRUS_SHA1_X86 1
#include <immintrin.h>
#else
#define CYRUS_SHA1_X86 0
#endif

namespace cyrus {
namespace {

uint32_t RotL32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

#if CYRUS_SHA1_X86

#define CYRUS_SHA_NI __attribute__((target("sha,sse4.1")))

// Rounds 4g..4g+3. `m[g % 4]` holds message words W[4g..4g+3]; the other
// three registers carry the schedule for the next groups, each finished
// over three steps (msg1, xor, msg2) so W[4(g+1)..] is ready when group
// g+1 starts. `e[g % 2]` enters holding the ABCD that preceded the last
// group (SHA1NEXTE derives this group's E from it) and `e[(g+1) % 2]`
// leaves holding the ABCD that precedes this one.
template <int g>
CYRUS_SHA_NI __attribute__((always_inline)) inline void ShaNiGroup(__m128i& abcd,
                                                                   __m128i (&e)[2],
                                                                   __m128i (&m)[4]) {
  constexpr int kCur = g & 3;
  if constexpr (g == 0) {
    e[0] = _mm_add_epi32(e[0], m[0]);
  } else {
    e[g & 1] = _mm_sha1nexte_epu32(e[g & 1], m[kCur]);
  }
  e[(g + 1) & 1] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e[g & 1], g / 5);
  if constexpr (g >= 3 && g <= 18) {  // completes W[4(g+1)..]
    m[(g + 1) & 3] = _mm_sha1msg2_epu32(m[(g + 1) & 3], m[kCur]);
  }
  if constexpr (g >= 2 && g <= 17) {
    m[(g + 2) & 3] = _mm_xor_si128(m[(g + 2) & 3], m[kCur]);
  }
  if constexpr (g >= 1 && g <= 16) {  // starts W[4(g+3)..]
    m[(g + 3) & 3] = _mm_sha1msg1_epu32(m[(g + 3) & 3], m[kCur]);
  }
}

template <size_t... kGroups>
CYRUS_SHA_NI __attribute__((always_inline)) inline void ShaNiRounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4], std::index_sequence<kGroups...>) {
  (ShaNiGroup<static_cast<int>(kGroups)>(abcd, e, m), ...);
}

CYRUS_SHA_NI void BlocksShaNi(uint32_t state[5], const uint8_t* blocks, size_t count) {
  // Byte-reverses each 16-byte load: lane 3 ends up holding the first
  // big-endian message word, the layout the SHA instructions expect.
  const __m128i kByteSwap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  // ABCD lives reversed (A in lane 3), E in lane 3 of its own register.
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e_state = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abcd_in = abcd;
    __m128i m[4];
    for (int k = 0; k < 4; ++k) {
      m[k] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * k)), kByteSwap);
    }
    __m128i e[2] = {e_state, _mm_setzero_si128()};
    ShaNiRounds(abcd, e, m, std::make_index_sequence<20>{});
    // e[0] now holds the ABCD before the last group: its rotated A is the
    // final E, which SHA1NEXTE adds to the saved E.
    e_state = _mm_sha1nexte_epu32(e[0], e_state);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e_state, 3));
}

#undef CYRUS_SHA_NI

#define CYRUS_SHA_X8 __attribute__((target("avx512f,avx512vl")))

// The eight big-endian words at byte `offset` of each lane's blocks, one
// vector per word with lane k's copy in element k: eight byte-swapped row
// loads, then an 8x8 transpose of 32-bit elements.
CYRUS_SHA_X8 __attribute__((always_inline)) inline void LoadWordsX8(
    const uint8_t* const blocks[kSha1Lanes], size_t offset, __m256i* w) {
  const __m256i kByteSwap =
      _mm256_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, 3, 2, 1, 0, 7, 6,
                       5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  __m256i r[8];
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    r[k] = _mm256_shuffle_epi8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks[k] + offset)), kByteSwap);
  }
  // Pairs of lanes interleave words, then quads; each 128-bit half then
  // holds one word (low halves words 0-3, high halves words 4-7) for four
  // lanes, and the cross-half permute joins lanes 0-3 with lanes 4-7.
  __m256i t[8];
#pragma GCC unroll 4
  for (int k = 0; k < 8; k += 2) {
    t[k] = _mm256_unpacklo_epi32(r[k], r[k + 1]);
    t[k + 1] = _mm256_unpackhi_epi32(r[k], r[k + 1]);
  }
  __m256i u[8];
#pragma GCC unroll 2
  for (int k = 0; k < 8; k += 4) {
    u[k] = _mm256_unpacklo_epi64(t[k], t[k + 2]);
    u[k + 1] = _mm256_unpackhi_epi64(t[k], t[k + 2]);
    u[k + 2] = _mm256_unpacklo_epi64(t[k + 1], t[k + 3]);
    u[k + 3] = _mm256_unpackhi_epi64(t[k + 1], t[k + 3]);
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    w[j] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x20);
    w[j + 4] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x31);
  }
}

// The scalar loop of Sha1BlocksScalar with every variable widened to eight
// lanes. vpternlogd computes each round function in one instruction (0xCA
// is Ch, 0x96 parity, 0xE8 majority) and the schedule's three-way XOR.
CYRUS_SHA_X8 void BlocksMultiLane(uint32_t state[5][kSha1Lanes],
                                  const uint8_t* const blocks[kSha1Lanes], size_t count) {
  __m256i h[5];
  for (int j = 0; j < 5; ++j) {
    h[j] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[j]));
  }
  for (size_t offset = 0; count > 0; --count, offset += 64) {
    __m256i w[16];
    LoadWordsX8(blocks, offset, w);
    LoadWordsX8(blocks, offset + 32, w + 8);
    __m256i a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
#pragma GCC unroll 80
    for (int i = 0; i < 80; ++i) {
      if (i >= 16) {
        // W[i-16] leads: its register dies here, so the destructive
        // ternlog needs no copy.
        w[i & 15] = _mm256_rol_epi32(
            _mm256_xor_si256(_mm256_ternarylogic_epi32(w[i & 15], w[(i - 14) & 15],
                                                       w[(i - 8) & 15], 0x96),
                             w[(i - 3) & 15]),
            1);
      }
      __m256i f;
      uint32_t k;
      if (i < 20) {
        f = _mm256_ternarylogic_epi32(b, c, d, 0xCA);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = _mm256_ternarylogic_epi32(b, c, d, 0x96);
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = _mm256_ternarylogic_epi32(b, c, d, 0xE8);
        k = 0x8F1BBCDCu;
      } else {
        f = _mm256_ternarylogic_epi32(b, c, d, 0x96);
        k = 0xCA62C1D6u;
      }
      const __m256i kw =
          _mm256_add_epi32(w[i & 15], _mm256_set1_epi32(static_cast<int>(k)));
      // Everything but rol5(a) depends on older rounds, so each round
      // adds one rotate and one add to the chain through `a`.
      const __m256i temp =
          _mm256_add_epi32(_mm256_rol_epi32(a, 5), _mm256_add_epi32(f, _mm256_add_epi32(e, kw)));
      e = d;
      d = c;
      c = _mm256_rol_epi32(b, 30);
      b = a;
      a = temp;
    }
    h[0] = _mm256_add_epi32(h[0], a);
    h[1] = _mm256_add_epi32(h[1], b);
    h[2] = _mm256_add_epi32(h[2], c);
    h[3] = _mm256_add_epi32(h[3], d);
    h[4] = _mm256_add_epi32(h[4], e);
  }
  for (int j = 0; j < 5; ++j) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[j]), h[j]);
  }
}

#undef CYRUS_SHA_X8

#endif  // CYRUS_SHA1_X86

using BlocksFn = void (*)(uint32_t state[5], const uint8_t* blocks, size_t count);

// Chosen on first use and fixed for the life of the process.
BlocksFn DispatchedBlocks() {
  static const BlocksFn fn = Sha1ShaNiSupported() ? Sha1BlocksShaNi : Sha1BlocksScalar;
  return fn;
}

// Whether HashMany runs lanes; chosen on first use like DispatchedBlocks.
bool MultiLaneEnabled() {
  static const bool enabled = Sha1MultiLaneSupported();
  return enabled;
}

constexpr std::array<uint32_t, 5> kInitialState = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                                   0x10325476u, 0xC3D2E1F0u};

}  // namespace

void Sha1BlocksScalar(uint32_t state[5], const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = RotL32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const uint32_t temp = RotL32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = RotL32(b, 30);
      b = a;
      a = temp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

void Sha1BlocksShaNi(uint32_t state[5], const uint8_t* blocks, size_t count) {
#if CYRUS_SHA1_X86
  BlocksShaNi(state, blocks, count);
#else
  Sha1BlocksScalar(state, blocks, count);
#endif
}

bool Sha1ShaNiSupported() {
#if CYRUS_SHA1_X86
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

void Sha1BlocksMultiLane(uint32_t state[5][kSha1Lanes],
                         const uint8_t* const blocks[kSha1Lanes], size_t count) {
#if CYRUS_SHA1_X86
  BlocksMultiLane(state, blocks, count);
#else
  for (size_t k = 0; k < kSha1Lanes; ++k) {
    uint32_t lane[5] = {state[0][k], state[1][k], state[2][k], state[3][k], state[4][k]};
    Sha1BlocksScalar(lane, blocks[k], count);
    for (int j = 0; j < 5; ++j) {
      state[j][k] = lane[j];
    }
  }
#endif
}

bool Sha1MultiLaneSupported() {
#if CYRUS_SHA1_X86
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

std::string Sha1Digest::ToHex() const { return HexEncode(bytes); }

uint64_t Sha1Digest::Prefix64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | bytes[i];
  }
  return v;
}

Sha1::Sha1() : h_(kInitialState) {}

Sha1::Sha1(const std::array<uint32_t, 5>& h, uint64_t bytes) : h_(h), total_bytes_(bytes) {}

void Sha1::Update(ByteSpan data) {
  assert(!finished_);
  if (data.empty()) {
    return;  // an empty span may carry a null pointer, which memcpy rejects
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  // Fill a partially-buffered block first.
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == buffer_.size()) {
      DispatchedBlocks()(h_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Whole blocks straight from the input, in one call.
  const size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    DispatchedBlocks()(h_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }
  // Stash the tail.
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha1Digest Sha1::Finish() {
  assert(!finished_);

  const uint64_t bit_len = total_bytes_ * 8;
  // Append 0x80, zero-pad to 56 mod 64, then the 64-bit big-endian length.
  uint8_t pad[72] = {0x80};
  const size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  Update(ByteSpan(pad, pad_len));
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(ByteSpan(len_bytes, 8));
  assert(buffer_len_ == 0);
  finished_ = true;

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest Sha1::Hash(ByteSpan data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

void Sha1::HashMany(std::span<const ByteSpan> inputs, std::span<Sha1Digest> out) {
  assert(inputs.size() == out.size());
  size_t next = 0;  // the first input no lane has taken
  if (MultiLaneEnabled()) {
    // Lanes [0, busy) hash input `input`, of which the whole blocks before
    // `done` are in the lane's column of `state`.
    struct Lane {
      size_t input = 0;
      size_t done = 0;
    };
    std::array<Lane, kSha1Lanes> lanes;
    uint32_t state[5][kSha1Lanes] = {};
    auto whole = [&](const Lane& lane) { return inputs[lane.input].size() / 64 * 64; };
    // Gives lane k the next input with a whole block; shorter inputs on
    // the way are hashed directly. False when none is left.
    auto refill = [&](size_t k) {
      for (; next < inputs.size() && inputs[next].size() < 64; ++next) {
        out[next] = Hash(inputs[next]);
      }
      if (next == inputs.size()) {
        return false;
      }
      lanes[k] = Lane{next++, 0};
      for (size_t j = 0; j < 5; ++j) {
        state[j][k] = kInitialState[j];
      }
      return true;
    };
    // Hashes lane k's tail and padding on the single-stream path.
    auto finish = [&](size_t k) {
      const Lane& lane = lanes[k];
      Sha1 h({state[0][k], state[1][k], state[2][k], state[3][k], state[4][k]}, lane.done);
      h.Update(inputs[lane.input].subspan(lane.done));
      out[lane.input] = h.Finish();
    };

    size_t busy = 0;
    while (busy < kSha1Lanes && refill(busy)) {
      ++busy;
    }
    while (busy >= kSha1MinLanes) {
      const uint8_t* blocks[kSha1Lanes] = {};
      size_t step = std::numeric_limits<size_t>::max();
      for (size_t k = 0; k < busy; ++k) {
        blocks[k] = inputs[lanes[k].input].data() + lanes[k].done;
        step = std::min(step, (whole(lanes[k]) - lanes[k].done) / 64);
      }
      // Idle lanes re-read lane 0's blocks; their state is never used.
      std::fill(blocks + busy, blocks + kSha1Lanes, blocks[0]);
      Sha1BlocksMultiLane(state, blocks, step);
      for (size_t k = 0; k < busy;) {
        lanes[k].done += step * 64;
        if (lanes[k].done < whole(lanes[k])) {
          ++k;
          continue;
        }
        finish(k);
        if (refill(k)) {
          ++k;
          continue;
        }
        // No input left: the last busy lane moves into slot k and is
        // advanced there.
        --busy;
        lanes[k] = lanes[busy];
        for (size_t j = 0; j < 5; ++j) {
          state[j][k] = state[j][busy];
        }
      }
    }
    for (size_t k = 0; k < busy; ++k) {
      finish(k);
    }
  }
  for (; next < inputs.size(); ++next) {
    out[next] = Hash(inputs[next]);
  }
}

}  // namespace cyrus
