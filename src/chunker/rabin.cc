#include "src/chunker/rabin.h"

namespace cyrus {
namespace {

// Multiplies `value` by x once in GF(2)[x] mod (x^64 + poly_low).
uint64_t TimesX(uint64_t value, uint64_t poly_low) {
  const uint64_t top = value >> 63;
  value <<= 1;
  if (top) {
    value ^= poly_low;
  }
  return value;
}

}  // namespace

RabinFingerprint::RabinFingerprint(size_t window_size, uint64_t polynomial)
    : polynomial_(polynomial), window_size_(window_size), window_(window_size, 0) {
  BuildTables();
}

void RabinFingerprint::BuildTables() {
  // mod_table_[b] = b * x^64 mod P: the reduction applied when the top byte
  // of the fingerprint overflows during an 8-bit shift.
  for (unsigned b = 0; b < 256; ++b) {
    uint64_t r = b;
    for (int i = 0; i < 64; ++i) {
      r = TimesX(r, polynomial_);
    }
    mod_table_[b] = r;
  }
  // out_table_[b] = b * x^(8 * (window_size - 1)) mod P: the contribution of
  // the window's oldest byte at the moment it is expired (Roll removes the
  // oldest byte *before* applying the x^8 append shift).
  for (unsigned b = 0; b < 256; ++b) {
    uint64_t r = b;
    for (size_t i = 0; i < 8 * (window_size_ - 1); ++i) {
      r = TimesX(r, polynomial_);
    }
    out_table_[b] = r;
  }
}

uint64_t RabinFingerprint::Roll(uint8_t byte) {
  // Expire the byte that is leaving the window...
  const uint8_t oldest = window_[window_pos_];
  window_[window_pos_] = byte;
  if (++window_pos_ == window_size_) {
    window_pos_ = 0;
  }
  // ...then append the new byte: fp = fp * x^8 + byte (mod P).
  fingerprint_ = Append(Expire(fingerprint_, oldest), byte);
  return fingerprint_;
}

void RabinFingerprint::Reset() {
  fingerprint_ = 0;
  window_pos_ = 0;
  std::fill(window_.begin(), window_.end(), 0);
}

uint64_t RabinFingerprint::Of(ByteSpan data, size_t window_size, uint64_t polynomial) {
  RabinFingerprint rf(window_size, polynomial);
  for (uint8_t b : data) {
    rf.Roll(b);
  }
  return rf.fingerprint();
}

}  // namespace cyrus
