#include "src/util/bytes.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace cyrus {

HugePageRange HugePagesInside(uintptr_t data, size_t size) {
  const uintptr_t mask = kHugePageBytes - 1;
  const uintptr_t first = (data + mask) & ~mask;
  const uintptr_t end = (data + size) & ~mask;
  if (first >= end) {
    return {};
  }
  return {first, end - first};
}

Bytes ZeroedBytes(size_t size) {
  Bytes out;
  out.reserve(size);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const HugePageRange pages = HugePagesInside(reinterpret_cast<uintptr_t>(out.data()), size);
  if (pages.size > 0) {
    // Advice only: a kernel without THP, or with it set to never, says no
    // and the buffer faults in base pages as before.
    (void)madvise(reinterpret_cast<void*>(pages.begin), pages.size, MADV_HUGEPAGE);
  }
#endif
  out.resize(size);
  return out;
}

bool ConstantTimeEqual(ByteSpan a, ByteSpan b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace cyrus
