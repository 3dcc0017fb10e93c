// Byte-buffer aliases and small helpers used across CYRUS.
#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cyrus {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

// Converts between text and bytes without copying surprises.
inline Bytes ToBytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

inline std::string ToString(ByteSpan bytes) {
  return std::string(bytes.begin(), bytes.end());
}

inline ByteSpan AsByteSpan(std::string_view text) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// The whole 2 MiB-aligned pages inside [data, data + size): `begin` is the
// first such page's address and `size` a multiple of kHugePageBytes, 0 when
// no page fits.
struct HugePageRange {
  uintptr_t begin = 0;
  size_t size = 0;
};
HugePageRange HugePagesInside(uintptr_t data, size_t size);

// `size` zero bytes, faulted in 2 MiB pages where the kernel allows it: the
// buffer is reserved first, its HugePagesInside are advised MADV_HUGEPAGE
// (Linux; a no-op elsewhere or with transparent huge pages off), and only
// then zero-filled. For large outputs written once, such as a whole-file
// Get's result: a fresh 64 MiB buffer then takes ~550 faults, not ~16,400.
Bytes ZeroedBytes(size_t size);

// Constant-time byte comparison (used when comparing digests so that the
// comparison itself does not leak positions; cheap insurance).
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

}  // namespace cyrus

#endif  // SRC_UTIL_BYTES_H_
