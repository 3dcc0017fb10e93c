// Oracles for Put's plan, shared by the chunker, client and sync tests:
// Split plus one SHA-1 per chunk, and the content id as documented beside
// ComputeContentId (src/chunker/chunker.h), written out here from that
// formula rather than by calling it.
#ifndef TESTS_PLAN_ORACLE_H_
#define TESTS_PLAN_ORACLE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/chunker/chunker.h"
#include "src/crypto/sha1.h"
#include "src/util/bytes.h"

namespace cyrus {

// What the planner must yield: Split's spans, each with the SHA-1 of its
// bytes.
inline std::vector<PlannedChunk> ReferencePlan(const Chunker& chunker, ByteSpan data) {
  std::vector<PlannedChunk> plan;
  for (const ChunkSpan& span : chunker.Split(data)) {
    plan.push_back(PlannedChunk{span, Sha1::Hash(data.subspan(span.offset, span.size))});
  }
  return plan;
}

// SHA-1 of "cyrus-content-v1", then each chunk's size (u64 little-endian)
// and id, in file order.
inline Sha1Digest ReferenceContentId(const std::vector<PlannedChunk>& plan) {
  Sha1 h;
  h.Update(std::string_view("cyrus-content-v1"));
  for (const PlannedChunk& chunk : plan) {
    uint8_t size[8];
    for (int i = 0; i < 8; ++i) {
      size[i] = static_cast<uint8_t>(static_cast<uint64_t>(chunk.span.size) >> (8 * i));
    }
    h.Update(ByteSpan(size, sizeof(size)));
    h.Update(ByteSpan(chunk.id.bytes.data(), chunk.id.bytes.size()));
  }
  return h.Finish();
}

// The content id of `data` as cut by a chunker with `options`.
inline Sha1Digest ReferenceContentId(const ChunkerOptions& options, ByteSpan data) {
  return ReferenceContentId(ReferencePlan(Chunker::Create(options).value(), data));
}

}  // namespace cyrus

#endif  // TESTS_PLAN_ORACLE_H_
