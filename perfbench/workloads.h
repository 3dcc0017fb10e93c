// The benchmark's workloads. Each is a closed loop with one caller: every
// client call waits for the previous one. Inputs come from the seed alone.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "perfbench/session.h"

namespace cyrus {
namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual TestbedOptions testbed() const = 0;
  // Loads a fresh session's testbed. Every call starts from the seed, so
  // repeated set-ups do identical work.
  virtual void Setup(Session& session) = 0;
  // Runs unrecorded ops that bring caches to their steady state.
  virtual void WarmUp(Session& /*session*/) {}
  // Runs the measured phase (the session is already measuring).
  virtual void Measure(Session& session, double seconds) = 0;
};

// `name` is bulk, sync or stream; `tiny` shrinks every size for the smoke
// test. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed, bool tiny);

}  // namespace perfbench
}  // namespace cyrus

#endif  // PERFBENCH_WORKLOADS_H_
