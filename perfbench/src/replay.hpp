// The traced run: one operation replayed layer by layer under spans.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
};

struct LayerValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TraceResult {
  double op_wall_s = 0.0;
  std::string problem;             ///< empty when the replay matched the reference
  std::vector<LayerValue> layers;  ///< every name of layer_metric_names(), in order
};

/// Every per-layer metric the traced run reports, with its unit.  A
/// layer the workload's op does not run reads 0.
[[nodiscard]] std::vector<LayerMetric> layer_metric_names();

/// The replayed stage's wall time against the library call it replays:
/// study.load against SimulatedSource::load or DatasetSource::load,
/// study.generate against generate_sharded_dataset.  The two run back to
/// back in pairs, in alternating order, at least three pairs and for at
/// least `min_seconds`; each side reports its fastest call, as op_s does.
/// A ratio far from 1 means the replay no longer follows the library.
struct ReplayTiming {
  std::string stage;
  double replay_s = 0.0;   ///< fastest replayed call
  double library_s = 0.0;  ///< fastest library call
  double ratio = 0.0;      ///< replay_s / library_s
  std::size_t pairs = 0;
};
[[nodiscard]] ReplayTiming time_replay(Workload w, const titan::core::FacilityConfig& config,
                                       const Fixture& fixture, double min_seconds);

/// Run one traced operation of `w` (the first op of a fresh process, so
/// the RSS high-water marks after each stage are the op's own).
[[nodiscard]] TraceResult run_traced(Workload w, const titan::core::FacilityConfig& config,
                                     const Fixture& fixture, const Rendered& reference,
                                     Tracer& tracer);

}  // namespace perfbench
