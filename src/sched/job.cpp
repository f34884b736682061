#include "sched/job.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "par/parallel.hpp"

namespace titan::sched {

namespace {

/// Calls fn(router, halves) for each Gemini router in [lo, hi) that `run`
/// covers, where `halves` has bit h set for the router's node of half h.
template <typename Fn>
void for_each_router(const NodeSet::Run& run, std::size_t lo, std::size_t hi, Fn&& fn) {
  const std::size_t first = run.first;
  const std::size_t last = first + run.count;  // exclusive slot
  const std::size_t r_begin = std::max(lo, first / 2);
  const std::size_t r_end = std::min(hi, (last + 1) / 2);
  for (std::size_t r = r_begin; r < r_end; ++r) {
    const unsigned from = first > 2 * r ? 1U : 0U;
    const unsigned to = last < 2 * r + 2 ? 1U : 2U;
    fn(r, ((1U << to) - 1U) & ~((1U << from) - 1U));
  }
}

}  // namespace

JobTrace::JobTrace(std::vector<JobRecord> jobs) : jobs_{std::move(jobs)} {
  if (jobs_.size() > (std::size_t{1} << 30)) {
    throw std::invalid_argument{"JobTrace: more than 2^30 jobs"};
  }
  starts_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id != static_cast<xid::JobId>(i)) {
      throw std::invalid_argument{"JobTrace: job ids must be dense and 0-based"};
    }
    if (i > 0 && jobs_[i].start < jobs_[i - 1].start) {
      throw std::invalid_argument{"JobTrace: job starts must be nondecreasing in job id"};
    }
    starts_.push_back(jobs_[i].start);
  }

  // Router ranges are independent: one task per pool thread walks every
  // job's runs and touches only its own routers -- the same bytes at any
  // width.  A job's runs may revisit a router (hand-built traces), so
  // each pass remembers the last job seen per router and merges halves.
  const auto routers = static_cast<std::size_t>(topology::kGeminiCount);
  const std::size_t ranges = par::thread_count();
  const auto range_lo = [&](std::size_t r) { return routers * r / ranges; };

  // Counting pass -> exact-sized CSR arrays: no per-router vector slack
  // and no reallocation transient.
  offsets_.assign(routers + 1, 0);
  std::vector<char> duplicate(ranges, 0);
  par::parallel_for(0, ranges, 1, [&](std::size_t r) {
    const std::size_t lo = range_lo(r);
    const std::size_t hi = range_lo(r + 1);
    constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> last_job(hi - lo, kNone);
    std::vector<unsigned> held(hi - lo, 0);
    for (const auto& job : jobs_) {
      const auto id = static_cast<std::uint32_t>(job.id);
      for (const auto& run : job.nodes.runs()) {
        for_each_router(run, lo, hi, [&](std::size_t router, unsigned halves) {
          const std::size_t k = router - lo;
          if (last_job[k] != id) {
            last_job[k] = id;
            held[k] = halves;
            ++offsets_[router + 1];
          } else {
            if ((held[k] & halves) != 0) duplicate[r] = 1;
            held[k] |= halves;
          }
        });
      }
    }
  });
  if (std::find(duplicate.begin(), duplicate.end(), 1) != duplicate.end()) {
    throw std::invalid_argument{"JobTrace: a job lists a node twice"};
  }
  for (std::size_t n = 1; n < offsets_.size(); ++n) offsets_[n] += offsets_[n - 1];

  // Scatter in job-id order, so every router's slice comes out in id
  // order, which is start order (starts are nondecreasing in id).
  entries_.resize(offsets_.back());
  par::parallel_for(0, ranges, 1, [&](std::size_t r) {
    const std::size_t lo = range_lo(r);
    const std::size_t hi = range_lo(r + 1);
    std::vector<std::uint64_t> cursor{offsets_.begin() + static_cast<std::ptrdiff_t>(lo),
                                      offsets_.begin() + static_cast<std::ptrdiff_t>(hi)};
    for (const auto& job : jobs_) {
      const auto id = static_cast<std::uint32_t>(job.id);
      for (const auto& run : job.nodes.runs()) {
        for_each_router(run, lo, hi, [&](std::size_t router, unsigned halves) {
          std::uint64_t& c = cursor[router - lo];
          if (c > offsets_[router] && (entries_[c - 1] >> 2) == id) {
            entries_[c - 1] |= halves;
          } else {
            entries_[c++] = id << 2 | halves;
          }
        });
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
  if (node < 0 || node >= topology::kNodeSlots) throw std::out_of_range{"JobTrace: unknown node"};
  const std::uint32_t slot = torus_slot(node);
  const unsigned half = 1U << (slot % 2);

  // Jobs [0, later) started at or before `when` (starts are nondecreasing
  // in id).  The answer is the last of them holding `node`, if it is
  // still running: in the router's id-ordered slice, the last entry below
  // `later`, stepping back past entries that hold only the other half.
  const auto later = static_cast<std::uint32_t>(
      std::upper_bound(starts_.begin(), starts_.end(), when) - starts_.begin());
  const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[slot / 2]);
  const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[slot / 2 + 1]);
  auto it = std::lower_bound(begin, end, later,
                             [](std::uint32_t e, std::uint32_t id) { return (e >> 2) < id; });
  while (it != begin) {
    --it;
    if ((*it & half) == 0) continue;
    const JobRecord& record = jobs_[*it >> 2];
    return when < record.end ? record.id : xid::kNoJob;
  }
  return xid::kNoJob;
}

std::vector<JobTrace::Occupancy> JobTrace::occupancy(topology::NodeId node, stats::TimeSec begin,
                                                     stats::TimeSec end) const {
  if (node < 0 || node >= topology::kNodeSlots) throw std::out_of_range{"JobTrace: unknown node"};
  const std::uint32_t slot = torus_slot(node);
  const unsigned half = 1U << (slot % 2);
  std::vector<Occupancy> out;
  for (std::uint64_t i = offsets_[slot / 2]; i < offsets_[slot / 2 + 1]; ++i) {
    if ((entries_[i] & half) == 0) continue;
    const JobRecord& record = jobs_[entries_[i] >> 2];
    if (record.end <= begin) continue;
    if (record.start >= end) break;
    out.push_back(Occupancy{record.id, std::max(begin, record.start),
                            std::min(end, record.end)});
  }
  return out;
}

}  // namespace titan::sched
