#include "sched/job.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "par/parallel.hpp"

namespace titan::sched {

JobTrace::JobTrace(std::vector<JobRecord> jobs) : jobs_{std::move(jobs)} {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id != static_cast<xid::JobId>(i)) {
      throw std::invalid_argument{"JobTrace: job ids must be dense and 0-based"};
    }
    if (i > 0 && jobs_[i].start < jobs_[i - 1].start) {
      throw std::invalid_argument{"JobTrace: job starts must be nondecreasing in job id"};
    }
  }

  if (jobs_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"JobTrace: more than 2^32 jobs"};
  }

  // Starts are stored as seconds since base_; the last job starts latest.
  base_ = jobs_.empty() ? 0 : jobs_.front().start;
  constexpr auto kMaxSpan = static_cast<stats::TimeSec>(std::numeric_limits<std::uint32_t>::max());
  if (!jobs_.empty() && jobs_.back().start - base_ > kMaxSpan) {
    throw std::invalid_argument{"JobTrace: trace spans more than 2^32 seconds"};
  }

  // Counting pass -> exact-sized CSR arrays: no per-node vector slack and
  // no reallocation transient, which matters when the index holds tens of
  // millions of entries.
  offsets_.assign(static_cast<std::size_t>(topology::kNodeSlots) + 1, 0);
  for (const auto& job : jobs_) {
    for (topology::NodeId node : job.nodes) {
      ++offsets_[static_cast<std::size_t>(node) + 1];
    }
  }
  for (std::size_t n = 1; n < offsets_.size(); ++n) offsets_[n] += offsets_[n - 1];

  // Scatter in job-id order.  Starts are nondecreasing in id (checked
  // above), so every node's slice comes out in (start, job) order with no
  // per-node sort.  Node ranges are independent: one task per pool
  // thread walks every job and fills only its own nodes' slices -- the
  // same bytes at any width, and no buffer beyond the entries themselves.
  entries_.resize(offsets_.back());
  const std::size_t nodes = offsets_.size() - 1;
  const std::size_t ranges = par::thread_count();
  par::parallel_for(0, ranges, 1, [&](std::size_t r) {
    const std::size_t lo = nodes * r / ranges;
    const std::size_t hi = nodes * (r + 1) / ranges;
    std::vector<std::uint64_t> cursor{offsets_.begin() + static_cast<std::ptrdiff_t>(lo),
                                      offsets_.begin() + static_cast<std::ptrdiff_t>(hi)};
    for (const auto& job : jobs_) {
      const IndexEntry entry{static_cast<std::uint32_t>(job.start - base_),
                             static_cast<std::uint32_t>(job.id)};
      for (topology::NodeId node : job.nodes) {
        const std::size_t slot = static_cast<std::size_t>(node) - lo;  // wraps below lo
        if (slot < hi - lo) entries_[cursor[slot]++] = entry;
      }
    }
  });
}

const JobRecord& JobTrace::job(xid::JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range{"JobTrace: unknown job id"};
  }
  return jobs_[static_cast<std::size_t>(id)];
}

xid::JobId JobTrace::job_at(topology::NodeId node, stats::TimeSec when) const {
  const auto n = static_cast<std::size_t>(node);
  if (n + 1 >= offsets_.size()) throw std::out_of_range{"JobTrace: unknown node"};
  if (when < base_) return xid::kNoJob;
  const stats::TimeSec delta = when - base_;
  const auto key = static_cast<std::uint32_t>(
      std::min(delta, static_cast<stats::TimeSec>(std::numeric_limits<std::uint32_t>::max())));

  // Last entry starting at or before `when`, if its job is still running.
  const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n]);
  const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n + 1]);
  auto it = std::upper_bound(begin, end, key,
                             [](std::uint32_t k, const IndexEntry& e) { return k < e.start; });
  if (it == begin) return xid::kNoJob;
  --it;
  const JobRecord& record = jobs_[static_cast<std::size_t>(it->job)];
  return (when >= record.start && when < record.end) ? record.id : xid::kNoJob;
}

std::vector<JobTrace::Occupancy> JobTrace::occupancy(topology::NodeId node, stats::TimeSec begin,
                                                     stats::TimeSec end) const {
  const auto n = static_cast<std::size_t>(node);
  if (n + 1 >= offsets_.size()) throw std::out_of_range{"JobTrace: unknown node"};
  std::vector<Occupancy> out;
  for (std::uint64_t i = offsets_[n]; i < offsets_[n + 1]; ++i) {
    const JobRecord& record = jobs_[static_cast<std::size_t>(entries_[i].job)];
    if (record.end <= begin) continue;
    if (record.start >= end) break;
    out.push_back(Occupancy{record.id, std::max(begin, record.start),
                            std::min(end, record.end)});
  }
  return out;
}

}  // namespace titan::sched
