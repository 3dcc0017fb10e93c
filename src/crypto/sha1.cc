#include "src/crypto/sha1.h"

#include <cassert>
#include <cstring>
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

#endif  // CYRUS_SHA1_X86

using BlocksFn = void (*)(uint32_t state[5], const uint8_t* blocks, size_t count);

// Chosen on first use and fixed for the life of the process.
BlocksFn DispatchedBlocks() {
  static const BlocksFn fn = Sha1ShaNiSupported() ? Sha1BlocksShaNi : Sha1BlocksScalar;
  return fn;
}

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

std::string Sha1Digest::ToHex() const { return HexEncode(bytes); }

uint64_t Sha1Digest::Prefix64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | bytes[i];
  }
  return v;
}

Sha1::Sha1() : h_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {}

void Sha1::Update(ByteSpan data) {
  assert(!finished_);
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

}  // namespace cyrus
