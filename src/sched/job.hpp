// Batch-job records: what Titan's job logs and resource-utilization logs
// provide for the Section 4 analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sched/node_set.hpp"
#include "stats/calendar.hpp"
#include "topology/machine.hpp"
#include "xid/event.hpp"

namespace titan::sched {

/// One completed batch job.
struct JobRecord {
  xid::JobId id = xid::kNoJob;
  xid::UserId user = xid::kNoUser;
  stats::TimeSec start = 0;
  stats::TimeSec end = 0;                 ///< exclusive
  NodeSet nodes;                          ///< allocation, in allocator search order
  double gpu_core_hours = 0.0;            ///< node-hours x GPU duty factor
  double max_memory_gb = 0.0;             ///< peak per-node GPU memory (RUR maxrss style, <= 6)
  double total_memory_gb = 0.0;           ///< time-integrated per-node memory (GB x hours)
  bool debug = false;                     ///< ground truth: debug/test run (error-prone)

  [[nodiscard]] double wall_hours() const noexcept {
    return static_cast<double>(end - start) / static_cast<double>(stats::kSecondsPerHour);
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
};

/// A job trace plus per-router occupancy index for (node, time) -> job
/// attribution, which the fault generators and the per-job nvidia-smi
/// framework both need.
class JobTrace {
 public:
  /// Job ids must be dense and 0-based, starts nondecreasing in id (the
  /// order a scheduler starts jobs in), no job may list a node twice, and
  /// there may be at most 2^30 jobs; std::invalid_argument otherwise.
  explicit JobTrace(std::vector<JobRecord> jobs);

  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const JobRecord& job(xid::JobId id) const;

  /// Job running on `node` at `when`; kNoJob when idle.  O(log jobs +
  /// log k + s) for k entries on the node's router, where s counts the
  /// consecutive entries just before the answer that hold only the
  /// router's other node (the reserved siblings of odd jobs).
  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const;

  /// All (job, overlap-seconds) pairs for `node` within [begin, end).
  struct Occupancy {
    xid::JobId job = xid::kNoJob;
    stats::TimeSec begin = 0;
    stats::TimeSec end = 0;
  };
  [[nodiscard]] std::vector<Occupancy> occupancy(topology::NodeId node, stats::TimeSec begin,
                                                 stats::TimeSec end) const;

 private:
  std::vector<JobRecord> jobs_;  ///< indexed by JobId (ids are dense, 0-based)
  /// jobs_[i].start, contiguous for job_at's binary search.
  std::vector<stats::TimeSec> starts_;

  /// Occupancy index in CSR form: Gemini router r (torus rank) owns the
  /// slice [offsets_[r], offsets_[r+1]) of entries_, one 4-byte entry
  /// `job << 2 | halves` per (job, router), in job-id order by
  /// construction (an id-order scatter).  `halves` has bit h set when the
  /// job holds the router's node of half h (see torus_slot), so the
  /// reserved sibling of an odd job is not attributed to it.  Jobs own
  /// whole routers, so one entry covers two nodes: about 4 bytes per two
  /// (job x node) placements, where a per-node index of (start, job)
  /// pairs took 16.
  /// Default-initializes on resize(), so sizing the index writes nothing:
  /// each page is first touched by the (parallel) scatter that fills it,
  /// not by a serial zero fill.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    DefaultInitAllocator() = default;
    template <typename U>
    explicit DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>> entries_;
  std::vector<std::uint64_t> offsets_;  ///< kGeminiCount + 1 fences
};

}  // namespace titan::sched
