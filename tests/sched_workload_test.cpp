#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/facility.hpp"
#include "par/pool.hpp"
#include "topology/torus.hpp"

namespace titan::sched {
namespace {

stats::StudyPeriod short_period() {
  stats::StudyPeriod p;
  p.begin = stats::to_time(stats::CivilDate{2013, 6, 1});
  p.end = stats::to_time(stats::CivilDate{2013, 7, 1});
  return p;
}

WorkloadResult run_short(std::uint64_t seed = 5) {
  WorkloadParams params;
  params.period = short_period();
  const auto users = make_user_population(UserPopulationParams{}, stats::Rng{seed});
  return simulate_workload(params, users, stats::Rng{seed + 1});
}

TEST(Users, PopulationShape) {
  const auto users = make_user_population(UserPopulationParams{}, stats::Rng{1});
  EXPECT_EQ(users.size(), 400U);
  double total_weight = 0.0;
  for (const auto& u : users) {
    EXPECT_GE(u.debug_propensity, 0.0);
    EXPECT_LE(u.debug_propensity, 0.45);
    EXPECT_GT(u.activity_weight, 0.0);
    total_weight += u.activity_weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
  // Zipf: the first user dominates.
  EXPECT_GT(users[0].activity_weight, users[100].activity_weight * 10);
}

TEST(Users, Deterministic) {
  const auto a = make_user_population(UserPopulationParams{}, stats::Rng{9});
  const auto b = make_user_population(UserPopulationParams{}, stats::Rng{9});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scale_mu, b[i].scale_mu);
    EXPECT_EQ(a[i].debug_propensity, b[i].debug_propensity);
  }
}

TEST(Workload, JobsAreWellFormed) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  ASSERT_GT(jobs.size(), 500U);
  const auto period = short_period();
  for (const auto& job : jobs) {
    EXPECT_GE(job.start, period.begin);
    EXPECT_LE(job.end, period.end);
    EXPECT_LT(job.start, job.end);
    EXPECT_FALSE(job.nodes.empty());
    EXPECT_GE(job.gpu_core_hours, 0.0);
    EXPECT_GT(job.max_memory_gb, 0.0);
    EXPECT_NE(job.user, xid::kNoUser);
  }
}

TEST(Workload, JobIdsDense) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<xid::JobId>(i));
  }
}

TEST(Workload, NoNodeDoubleBooked) {
  const auto result = run_short();
  // For a sample of nodes, occupancy intervals must not overlap.
  for (topology::NodeId node = 0; node < topology::kNodeSlots; node += 997) {
    const auto occ = result.trace.occupancy(node, short_period().begin, short_period().end);
    for (std::size_t i = 1; i < occ.size(); ++i) {
      EXPECT_LE(occ[i - 1].end, occ[i].begin) << "node " << node;
    }
  }
}

TEST(Workload, JobAtFindsRunningJob) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  ASSERT_FALSE(jobs.empty());
  const auto& job = jobs[jobs.size() / 2];
  const auto mid = job.start + (job.end - job.start) / 2;
  for (const auto node : job.nodes) {
    EXPECT_EQ(result.trace.job_at(node, mid), job.id);
  }
  EXPECT_EQ(result.trace.job_at(job.nodes.front(), job.end), xid::kNoJob);
}

TEST(Workload, UtilizationIsHigh) {
  const auto result = run_short();
  EXPECT_GT(result.utilization(), 0.5);
  EXPECT_LE(result.utilization(), 1.0);
}

TEST(Workload, SomeDebugJobsExist) {
  const auto result = run_short();
  std::size_t debug = 0;
  for (const auto& job : result.trace.jobs()) {
    if (job.debug) ++debug;
  }
  EXPECT_GT(debug, 10U);
  EXPECT_LT(debug, result.trace.jobs().size() / 3);
}

TEST(Workload, Deterministic) {
  const auto a = run_short(11);
  const auto b = run_short(11);
  ASSERT_EQ(a.trace.jobs().size(), b.trace.jobs().size());
  for (std::size_t i = 0; i < a.trace.jobs().size(); i += 17) {
    EXPECT_EQ(a.trace.jobs()[i].start, b.trace.jobs()[i].start);
    EXPECT_EQ(a.trace.jobs()[i].nodes, b.trace.jobs()[i].nodes);
  }
}

TEST(Workload, DeadlineCalendarFlagsWeeks) {
  const stats::StudyPeriod period;  // full 21 months
  const DeadlineCalendar calendar{period, 0.15, stats::Rng{3}};
  EXPECT_GT(calendar.deadline_week_count(), 3U);
  EXPECT_LT(calendar.deadline_week_count(), 40U);
  EXPECT_FALSE(calendar.is_deadline(period.begin - 100));
}

TEST(Workload, DeadlineWeeksAreWeekGranular) {
  const stats::StudyPeriod period;
  const DeadlineCalendar calendar{period, 0.5, stats::Rng{4}};
  // Within any single week the flag is constant.
  for (int week = 0; week < 20; ++week) {
    const auto base = period.begin + week * 7 * stats::kSecondsPerDay;
    const bool flag = calendar.is_deadline(base);
    for (int d = 1; d < 7; ++d) {
      EXPECT_EQ(calendar.is_deadline(base + d * stats::kSecondsPerDay), flag);
    }
  }
}

TEST(JobTrace, RejectsNonDenseIds) {
  std::vector<JobRecord> jobs(1);
  jobs[0].id = 5;
  EXPECT_THROW(JobTrace{std::move(jobs)}, std::invalid_argument);
}

TEST(JobTrace, UnknownJobThrows) {
  const JobTrace trace{{}};
  EXPECT_THROW((void)trace.job(0), std::out_of_range);
}

TEST(JobTrace, RejectsStartsOutOfIdOrder) {
  std::vector<JobRecord> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<xid::JobId>(i);
    jobs[i].nodes = {static_cast<topology::NodeId>(i)};
  }
  jobs[0].start = 100;
  jobs[1].start = 100;  // ties are fine
  jobs[2].start = 99;
  for (auto& job : jobs) job.end = job.start + 10;
  EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);
  jobs[2].start = 100;
  EXPECT_NO_THROW(JobTrace{jobs});
}

/// Test oracle: the occupancy index JobTrace used to build -- per-node
/// (start, job) lists sorted node by node -- with the same job_at and
/// occupancy queries.
class SortedNodeIndex {
 public:
  explicit SortedNodeIndex(const std::vector<JobRecord>& jobs)
      : jobs_{jobs}, by_node_(static_cast<std::size_t>(topology::kNodeSlots)) {
    for (const auto& job : jobs) {
      for (const auto node : job.nodes) {
        by_node_[static_cast<std::size_t>(node)].emplace_back(job.start, job.id);
      }
    }
    for (auto& list : by_node_) std::sort(list.begin(), list.end());
  }

  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const {
    const auto& list = by_node_[static_cast<std::size_t>(node)];
    auto it = std::upper_bound(list.begin(), list.end(), when,
                               [](stats::TimeSec t, const Entry& e) { return t < e.first; });
    if (it == list.begin()) return xid::kNoJob;
    const JobRecord& record = jobs_[static_cast<std::size_t>(std::prev(it)->second)];
    return (when >= record.start && when < record.end) ? record.id : xid::kNoJob;
  }

  [[nodiscard]] std::vector<JobTrace::Occupancy> occupancy(topology::NodeId node,
                                                           stats::TimeSec begin,
                                                           stats::TimeSec end) const {
    std::vector<JobTrace::Occupancy> out;
    for (const auto& [start, id] : by_node_[static_cast<std::size_t>(node)]) {
      const JobRecord& record = jobs_[static_cast<std::size_t>(id)];
      if (record.end <= begin) continue;
      if (record.start >= end) break;
      out.push_back(
          JobTrace::Occupancy{record.id, std::max(begin, record.start), std::min(end, record.end)});
    }
    return out;
  }

 private:
  using Entry = std::pair<stats::TimeSec, xid::JobId>;
  const std::vector<JobRecord>& jobs_;
  std::vector<std::vector<Entry>> by_node_;
};

template <typename Oracle>
void expect_same_occupancy(const JobTrace& trace, const Oracle& oracle, topology::NodeId node,
                           stats::TimeSec begin, stats::TimeSec end) {
  const auto got = trace.occupancy(node, begin, end);
  const auto want = oracle.occupancy(node, begin, end);
  ASSERT_EQ(got.size(), want.size()) << "node " << node << " [" << begin << ", " << end << ")";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].job, want[i].job) << "node " << node;
    ASSERT_EQ(got[i].begin, want[i].begin) << "node " << node;
    ASSERT_EQ(got[i].end, want[i].end) << "node " << node;
  }
}

/// The reserved sibling of an odd job's last router.
topology::NodeId spare_of(topology::NodeId node) {
  const auto pair = topology::gemini_nodes(topology::torus_coord(node));
  return pair[0] == node ? pair[1] : pair[0];
}

TEST(JobTrace, MatchesSortPerNodeIndexOnQuickStudy) {
  const auto config = core::quick_config(20151115);
  const stats::Rng master{config.seed};
  const auto users = make_user_population(config.users, master.fork("users"));
  const auto result = simulate_workload(config.workload, users, master.fork("workload"));
  const JobTrace& trace = result.trace;
  const SortedNodeIndex oracle{trace.jobs()};
  ASSERT_GT(trace.jobs().size(), 1000U);

  std::size_t odd_jobs = 0;
  for (const auto& job : trace.jobs()) {
    for (const auto node : job.nodes) {
      for (const stats::TimeSec when : {job.start - 1, job.start, job.start + 1, job.end - 1,
                                        job.end, job.end + 1}) {
        ASSERT_EQ(trace.job_at(node, when), oracle.job_at(node, when))
            << "job " << job.id << " node " << node << " t " << when;
      }
    }
    expect_same_occupancy(trace, oracle, job.nodes.front(), job.start - 1, job.end + 1);
    expect_same_occupancy(trace, oracle, job.nodes.back(), job.start, job.end);
    if (job.nodes.size() % 2 == 1) {
      // The last router's second node is reserved, not allocated.
      ++odd_jobs;
      const auto pair = topology::gemini_nodes(topology::torus_coord(job.nodes.back()));
      const auto spare = pair[0] == job.nodes.back() ? pair[1] : pair[0];
      for (const stats::TimeSec when : {job.start, job.end - 1}) {
        ASSERT_EQ(trace.job_at(spare, when), xid::kNoJob) << "job " << job.id;
        ASSERT_EQ(oracle.job_at(spare, when), xid::kNoJob) << "job " << job.id;
      }
    }
  }
  EXPECT_GT(odd_jobs, 100U);

  stats::Rng rng{20151115};
  const auto begin = config.period.begin - 3600;
  const auto span = static_cast<std::uint64_t>(config.period.duration() + 7200);
  for (int q = 0; q < 200000; ++q) {
    const auto node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
    const auto when = begin + static_cast<stats::TimeSec>(rng.below(span));
    ASSERT_EQ(trace.job_at(node, when), oracle.job_at(node, when))
        << "node " << node << " t " << when;
    if (q % 100 == 0) {
      const auto until = when + static_cast<stats::TimeSec>(rng.below(14 * stats::kSecondsPerDay));
      expect_same_occupancy(trace, oracle, node, when, until);
    }
  }
}

/// Test oracle: the per-node 8-byte occupancy index JobTrace held before
/// the per-router one -- node n owns a CSR slice of (start - base, job)
/// entries, filled by an id-order scatter -- restricted to the nodes in
/// [lo, hi) so that the full study's 43.8M placements can be checked a
/// quarter at a time.
class PerNodeIndex {
 public:
  PerNodeIndex(const std::vector<JobRecord>& jobs, topology::NodeId lo, topology::NodeId hi)
      : jobs_{jobs}, lo_{lo}, hi_{hi} {
    base_ = jobs.empty() ? 0 : jobs.front().start;
    offsets_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    for (const auto& job : jobs) {
      for (const topology::NodeId node : job.nodes) {
        if (node >= lo && node < hi) ++offsets_[static_cast<std::size_t>(node - lo) + 1];
      }
    }
    for (std::size_t n = 1; n < offsets_.size(); ++n) offsets_[n] += offsets_[n - 1];
    entries_.resize(offsets_.back());
    std::vector<std::uint64_t> cursor{offsets_.begin(), offsets_.end() - 1};
    for (const auto& job : jobs) {
      const IndexEntry entry{static_cast<std::uint32_t>(job.start - base_),
                             static_cast<std::uint32_t>(job.id)};
      for (const topology::NodeId node : job.nodes) {
        if (node >= lo && node < hi) entries_[cursor[static_cast<std::size_t>(node - lo)]++] = entry;
      }
    }
  }

  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const {
    const auto n = static_cast<std::size_t>(node - lo_);
    if (when < base_) return xid::kNoJob;
    const auto key = static_cast<std::uint32_t>(std::min(
        when - base_, static_cast<stats::TimeSec>(std::numeric_limits<std::uint32_t>::max())));
    const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n]);
    const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n + 1]);
    auto it = std::upper_bound(begin, end, key,
                               [](std::uint32_t k, const IndexEntry& e) { return k < e.start; });
    if (it == begin) return xid::kNoJob;
    --it;
    const JobRecord& record = jobs_[static_cast<std::size_t>(it->job)];
    return (when >= record.start && when < record.end) ? record.id : xid::kNoJob;
  }

  [[nodiscard]] std::vector<JobTrace::Occupancy> occupancy(topology::NodeId node,
                                                           stats::TimeSec begin,
                                                           stats::TimeSec end) const {
    const auto n = static_cast<std::size_t>(node - lo_);
    std::vector<JobTrace::Occupancy> out;
    for (std::uint64_t i = offsets_[n]; i < offsets_[n + 1]; ++i) {
      const JobRecord& record = jobs_[static_cast<std::size_t>(entries_[i].job)];
      if (record.end <= begin) continue;
      if (record.start >= end) break;
      out.push_back(
          JobTrace::Occupancy{record.id, std::max(begin, record.start), std::min(end, record.end)});
    }
    return out;
  }

  [[nodiscard]] bool covers(topology::NodeId node) const { return node >= lo_ && node < hi_; }

 private:
  struct IndexEntry {
    std::uint32_t start;  ///< seconds since base_
    std::uint32_t job;
  };
  const std::vector<JobRecord>& jobs_;
  topology::NodeId lo_;
  topology::NodeId hi_;
  stats::TimeSec base_ = 0;
  std::vector<IndexEntry> entries_;
  std::vector<std::uint64_t> offsets_;
};

TEST(JobTrace, MatchesPerNodeIndexOnDefaultStudy) {
  const auto config = core::default_config(20151115);
  const stats::Rng master{config.seed};
  const auto users = make_user_population(config.users, master.fork("users"));
  const auto result = simulate_workload(config.workload, users, master.fork("workload"));
  const JobTrace& trace = result.trace;
  const auto& jobs = trace.jobs();
  ASSERT_GT(jobs.size(), 100000U);
  constexpr auto kAllTime = std::numeric_limits<stats::TimeSec>::max();

  stats::Rng rng{20151115};
  const auto period_begin = config.period.begin - 3600;
  const auto span = static_cast<std::uint64_t>(config.period.duration() + 7200);
  constexpr topology::NodeId kQuarter = topology::kNodeSlots / 4;
  for (topology::NodeId lo = 0; lo < topology::kNodeSlots; lo += kQuarter) {
    const PerNodeIndex oracle{jobs, lo, lo + kQuarter};
    // Every node's whole slice: the two indexes hold the same placements.
    for (topology::NodeId node = lo; node < lo + kQuarter; ++node) {
      expect_same_occupancy(trace, oracle, node, -kAllTime, kAllTime);
    }
    // Job boundaries on a job's first, middle and last node, and the
    // reserved sibling of an odd job.
    for (const auto& job : jobs) {
      std::vector<topology::NodeId> probes{job.nodes.front(), job.nodes.nth(job.nodes.size() / 2),
                                           job.nodes.back()};
      if (job.nodes.size() % 2 == 1) probes.push_back(spare_of(job.nodes.back()));
      for (const auto node : probes) {
        if (!oracle.covers(node)) continue;
        for (const stats::TimeSec when : {job.start - 1, job.start, job.start + 1, job.end - 1,
                                          job.end, job.end + 1}) {
          ASSERT_EQ(trace.job_at(node, when), oracle.job_at(node, when))
              << "job " << job.id << " node " << node << " t " << when;
        }
      }
    }
    for (int q = 0; q < 50000; ++q) {
      const auto node = lo + static_cast<topology::NodeId>(rng.below(kQuarter));
      const auto when = period_begin + static_cast<stats::TimeSec>(rng.below(span));
      ASSERT_EQ(trace.job_at(node, when), oracle.job_at(node, when))
          << "node " << node << " t " << when;
      if (q % 50 == 0) {
        const auto until =
            when + static_cast<stats::TimeSec>(rng.below(14 * stats::kSecondsPerDay));
        expect_same_occupancy(trace, oracle, node, when, until);
      }
    }
  }
}

/// A hand-built job: [start, end) on `nodes`, in list order.
JobRecord hand_job(std::size_t id, stats::TimeSec start, stats::TimeSec end,
                   std::initializer_list<topology::NodeId> nodes) {
  JobRecord job;
  job.id = static_cast<xid::JobId>(id);
  job.start = start;
  job.end = end;
  job.nodes = NodeSet{nodes};
  return job;
}

/// Both nodes of the router at torus rank `rank`, lower id first.
std::array<topology::NodeId, 2> router(int rank) {
  return topology::gemini_nodes(topology::coord_from_rank(rank));
}

/// job_at at every second of [from, to) and occupancy over a few windows,
/// for every node the trace's jobs touch and their router siblings.
void expect_matches_oracle(const std::vector<JobRecord>& jobs, stats::TimeSec from,
                           stats::TimeSec to) {
  const JobTrace trace{jobs};
  const PerNodeIndex oracle{trace.jobs(), 0, topology::kNodeSlots};
  std::set<topology::NodeId> nodes;
  for (const auto& job : jobs) {
    for (const auto node : job.nodes) {
      nodes.insert(node);
      nodes.insert(spare_of(node));
    }
  }
  for (const auto node : nodes) {
    for (stats::TimeSec when = from; when < to; ++when) {
      ASSERT_EQ(trace.job_at(node, when), oracle.job_at(node, when))
          << "node " << node << " t " << when;
    }
    for (stats::TimeSec begin = from; begin < to; begin += 7) {
      expect_same_occupancy(trace, oracle, node, begin, begin + 13);
    }
  }
}

TEST(JobTrace, OddJobDoesNotOwnItsReservedSibling) {
  const auto a = router(100);
  const auto b = router(101);
  // Job 0 holds a and half 0 of b; job 1 later takes b's other half alone.
  const std::vector<JobRecord> jobs{hand_job(0, 10, 50, {a[0], a[1], b[0]}),
                                    hand_job(1, 60, 90, {b[1]})};
  const JobTrace trace{jobs};
  EXPECT_EQ(trace.job_at(b[0], 20), 0);
  EXPECT_EQ(trace.job_at(b[1], 20), xid::kNoJob);
  EXPECT_EQ(trace.job_at(b[0], 70), xid::kNoJob);
  EXPECT_EQ(trace.job_at(b[1], 70), 1);
  EXPECT_TRUE(trace.occupancy(b[1], 0, 55).empty());
  expect_matches_oracle(jobs, 0, 100);
}

TEST(JobTrace, JobsOverlappingOnDifferentHalvesOfOneRouter) {
  const auto r = router(7);
  // Job 0 on half 0 for [0, 100); job 1 on half 1 for [50, 150); job 2 on
  // half 1 for [150, 160): half 0 must step back past two half-1 entries.
  const std::vector<JobRecord> jobs{hand_job(0, 0, 100, {r[0]}), hand_job(1, 50, 150, {r[1]}),
                                    hand_job(2, 150, 160, {r[1]})};
  const JobTrace trace{jobs};
  EXPECT_EQ(trace.job_at(r[0], 75), 0);
  EXPECT_EQ(trace.job_at(r[1], 75), 1);
  EXPECT_EQ(trace.job_at(r[0], 155), xid::kNoJob);
  EXPECT_EQ(trace.job_at(r[0], 99), 0);
  EXPECT_EQ(trace.occupancy(r[0], 0, 200).size(), 1U);
  EXPECT_EQ(trace.occupancy(r[1], 0, 200).size(), 2U);
  expect_matches_oracle(jobs, -5, 170);
}

TEST(JobTrace, EqualStarts) {
  const auto r = router(2000);
  const auto s = router(2001);
  const std::vector<JobRecord> jobs{hand_job(0, 40, 60, {r[0]}), hand_job(1, 40, 45, {r[1], s[0]}),
                                    hand_job(2, 40, 41, {s[1]}), hand_job(3, 45, 80, {r[1]}),
                                    hand_job(4, 60, 70, {r[0], s[0]})};
  const JobTrace trace{jobs};
  EXPECT_EQ(trace.job_at(r[0], 40), 0);
  EXPECT_EQ(trace.job_at(r[1], 40), 1);
  EXPECT_EQ(trace.job_at(s[0], 44), 1);
  EXPECT_EQ(trace.job_at(s[1], 40), 2);
  EXPECT_EQ(trace.job_at(s[1], 41), xid::kNoJob);
  expect_matches_oracle(jobs, 30, 90);
}

TEST(JobTrace, RunsThatRevisitARouter) {
  const auto r = router(300);
  const auto far = router(9000);
  // Half 1, another router, then half 0: three runs, one router twice.
  const std::vector<JobRecord> jobs{hand_job(0, 0, 10, {r[1], far[0], far[1], r[0]}),
                                    hand_job(1, 10, 20, {r[0]}), hand_job(2, 12, 30, {r[1]})};
  ASSERT_EQ(jobs[0].nodes.runs().size(), 3U);
  const JobTrace trace{jobs};
  EXPECT_EQ(trace.job_at(r[0], 5), 0);
  EXPECT_EQ(trace.job_at(r[1], 5), 0);
  EXPECT_EQ(trace.job_at(r[1], 11), xid::kNoJob);
  EXPECT_EQ(trace.job_at(r[1], 12), 2);
  EXPECT_EQ(trace.occupancy(r[0], 0, 30).size(), 2U);
  expect_matches_oracle(jobs, -1, 35);
}

TEST(JobTrace, RejectsANodeListedTwice) {
  const auto r = router(42);
  const auto other = router(4242);
  for (const auto& nodes : {std::vector<topology::NodeId>{r[0], r[0]},
                            std::vector<topology::NodeId>{r[0], r[1], other[0], r[1]},
                            std::vector<topology::NodeId>{other[1], r[1], other[0], r[0], r[1]}}) {
    std::vector<JobRecord> jobs{hand_job(0, 0, 10, {other[0]}), hand_job(1, 5, 10, {})};
    jobs[1].nodes = NodeSet{nodes};
    EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);
  }
  // The same node in two different jobs is fine.
  EXPECT_NO_THROW((JobTrace{{hand_job(0, 0, 10, {r[0]}), hand_job(1, 10, 20, {r[0]})}}));
}

TEST(JobTrace, QueriesRejectUnknownNodes) {
  const JobTrace trace{{hand_job(0, 0, 10, {3})}};
  EXPECT_THROW((void)trace.job_at(-1, 0), std::out_of_range);
  EXPECT_THROW((void)trace.job_at(topology::kNodeSlots, 0), std::out_of_range);
  EXPECT_THROW((void)trace.occupancy(topology::kNodeSlots, 0, 10), std::out_of_range);
}

TEST(JobTrace, IndexIsWidthInvariant) {
  // The parallel fill must give the same answers at any pool width; the
  // query surface is all a caller sees of the index.
  const std::size_t width = par::thread_count();
  par::set_threads(4);
  const auto wide = run_short(23);
  par::set_threads(1);
  const auto narrow = run_short(23);
  par::set_threads(width);
  const auto& jobs = wide.trace.jobs();
  ASSERT_EQ(jobs.size(), narrow.trace.jobs().size());
  for (topology::NodeId node = 0; node < topology::kNodeSlots; node += 7) {
    const auto a = wide.trace.occupancy(node, short_period().begin, short_period().end);
    const auto b = narrow.trace.occupancy(node, short_period().begin, short_period().end);
    ASSERT_EQ(a.size(), b.size()) << "node " << node;
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].job, b[i].job);
  }
}

TEST(NodeSet, MatchesTheListItWasBuiltFrom) {
  stats::Rng rng{77};
  for (int trial = 0; trial < 400; ++trial) {
    // Random unsorted lists of distinct nodes, with sorted stretches so
    // that runs of every length occur.
    std::vector<topology::NodeId> all(static_cast<std::size_t>(topology::kNodeSlots));
    std::iota(all.begin(), all.end(), 0);
    const std::size_t length = rng.below(trial % 10 == 0 ? 4000 : 64);
    std::vector<topology::NodeId> list;
    while (list.size() < length) {
      const auto rank = static_cast<int>(rng.below(topology::kGeminiCount));
      const auto stretch = 1 + rng.below(6);
      for (std::uint64_t k = 0; k < stretch && list.size() < length; ++k) {
        const int at = (rank + static_cast<int>(k / 2)) % topology::kGeminiCount;
        const auto node = router(at)[k % 2];
        if (all[static_cast<std::size_t>(node)] < 0) continue;
        all[static_cast<std::size_t>(node)] = -1;
        list.push_back(node);
      }
    }
    const NodeSet set{list};
    ASSERT_EQ(set.size(), list.size());
    ASSERT_EQ(set.empty(), list.empty());
    ASSERT_EQ(std::vector<topology::NodeId>(set.begin(), set.end()), list);
    std::size_t run_total = 0;
    for (const auto& run : set.runs()) run_total += run.count;
    ASSERT_EQ(run_total, list.size());
    if (list.empty()) continue;
    ASSERT_EQ(set.front(), list.front());
    ASSERT_EQ(set.back(), list.back());
    for (std::size_t i = 0; i < list.size(); ++i) ASSERT_EQ(set.nth(i), list[i]) << i;
    EXPECT_THROW((void)set.nth(list.size()), std::out_of_range);
    // Equal lists give equal sets; a reordered list a different one.
    ASSERT_EQ(NodeSet{list}, set);
    if (list.size() > 1 && list.front() != list.back()) {
      auto swapped = list;
      std::swap(swapped.front(), swapped.back());
      ASSERT_NE(NodeSet{swapped}, set);
    }
  }
}

TEST(NodeSet, SlotOrderWalksRoutersInTorusRank) {
  for (int rank = 0; rank < topology::kGeminiCount; ++rank) {
    const auto nodes = router(rank);
    for (std::uint32_t half = 0; half < 2; ++half) {
      const std::uint32_t slot = 2 * static_cast<std::uint32_t>(rank) + half;
      ASSERT_EQ(torus_slot(nodes[half]), slot);
      ASSERT_EQ(slot_node(slot), nodes[half]);
    }
  }
  EXPECT_THROW(NodeSet({topology::kNodeSlots}), std::out_of_range);
  EXPECT_THROW(NodeSet({-1}), std::out_of_range);
}

}  // namespace
}  // namespace titan::sched
