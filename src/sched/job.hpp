// Batch-job records: what Titan's job logs and resource-utilization logs
// provide for the Section 4 analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

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
  std::vector<topology::NodeId> nodes;    ///< allocation, torus-rank order
  double gpu_core_hours = 0.0;            ///< node-hours x GPU duty factor
  double max_memory_gb = 0.0;             ///< peak per-node GPU memory (RUR maxrss style, <= 6)
  double total_memory_gb = 0.0;           ///< time-integrated per-node memory (GB x hours)
  bool debug = false;                     ///< ground truth: debug/test run (error-prone)

  [[nodiscard]] double wall_hours() const noexcept {
    return static_cast<double>(end - start) / static_cast<double>(stats::kSecondsPerHour);
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
};

/// A job trace plus per-node occupancy index for (node, time) -> job
/// attribution, which the fault generators and the per-job nvidia-smi
/// framework both need.
class JobTrace {
 public:
  /// Job ids must be dense and 0-based, and starts nondecreasing in id
  /// (the order a scheduler starts jobs in); std::invalid_argument
  /// otherwise.
  explicit JobTrace(std::vector<JobRecord> jobs);

  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const JobRecord& job(xid::JobId id) const;

  /// Job running on `node` at `when`; kNoJob when idle.
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

  /// Occupancy index in CSR form: node n owns the slice
  /// [offsets_[n], offsets_[n+1]) of entries_, in (start, job) order by
  /// construction (an id-order scatter of id-ordered starts);
  /// intervals within one node never overlap.  One flat 8-byte entry per
  /// (job x allocated node) -- at Titan scale that is tens of millions of
  /// entries, and the flat exact-sized layout (vs a vector-of-vectors of
  /// 16-byte pairs) halves the resident footprint of every campaign
  /// driver holding a trace.  Starts are stored as seconds since base_
  /// (the earliest job start), which a trace would need to span >136
  /// years to overflow.  Jobs are stored as 32-bit dense indices (ids
  /// are dense and 0-based by construction), keeping the entry at 8
  /// bytes -- a 64-bit xid::JobId would pad it to 16.
  struct IndexEntry {
    std::uint32_t start;  ///< seconds since base_
    std::uint32_t job;    ///< dense job index (== xid::JobId value)
  };
  /// Default-initializes on resize(), so sizing the index writes nothing:
  /// each page is first touched by the (parallel) scatter that fills it,
  /// not by a serial zero fill of hundreds of MB.
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
  std::vector<IndexEntry, DefaultInitAllocator<IndexEntry>> entries_;
  std::vector<std::uint64_t> offsets_;  ///< kNodeSlots + 1 fences
  stats::TimeSec base_ = 0;             ///< earliest job start (job 0's)
};

}  // namespace titan::sched
