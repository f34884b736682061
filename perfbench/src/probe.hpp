// Machine-speed probe for the timed ops.
//
// The benchmark runs on a shared machine whose speed drifts: other
// tenants' memory traffic and hyperthread siblings slow every op, in
// bursts of seconds and for minutes at a time.  No statistic over one run
// removes a slowdown that lasts the whole run, so the timed ops are
// scaled by how fast the machine ran the probe in the same
// run: fixed work that does not depend on titanrel, run between ops (never
// during one).  A change to titanrel cannot change the probe, so it moves
// a calibrated time exactly as it moves the wall time.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Probe {
 public:
  /// Builds the probe's 64 MiB working set (a fixed random cycle).
  Probe();

  /// Time one probe: a dependent-load chase through the working set, a
  /// strided sweep over part of it and an integer loop, the mix of
  /// memory latency, bandwidth and ALU work the workloads do.
  [[nodiscard]] double once();

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
