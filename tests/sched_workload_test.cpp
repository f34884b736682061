#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/facility.hpp"
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

void expect_same_occupancy(const JobTrace& trace, const SortedNodeIndex& oracle,
                           topology::NodeId node, stats::TimeSec begin, stats::TimeSec end) {
  const auto got = trace.occupancy(node, begin, end);
  const auto want = oracle.occupancy(node, begin, end);
  ASSERT_EQ(got.size(), want.size()) << "node " << node << " [" << begin << ", " << end << ")";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].job, want[i].job);
    ASSERT_EQ(got[i].begin, want[i].begin);
    ASSERT_EQ(got[i].end, want[i].end);
  }
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

}  // namespace
}  // namespace titan::sched
