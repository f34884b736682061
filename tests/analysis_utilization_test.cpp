#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "analysis/sbe_study.hpp"
#include "analysis/workload_char.hpp"
#include "core/facility.hpp"
#include "topology/torus.hpp"

namespace titan::analysis {
namespace {

const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::quick_config(21));
  return data;
}

const UtilizationStudy& study() {
  static const UtilizationStudy s = [] {
    const auto& d = dataset();
    // Measurement window: the final month of the quick campaign.
    const auto begin = stats::month_start(d.config.period.begin, 2);
    return utilization_study(d.trace, d.sbe_strikes, begin, d.config.period.end);
  }();
  return s;
}

TEST(Utilization, JobRecordsComeFromWindow) {
  ASSERT_GT(study().job_sbe.size(), 100U);
  const auto begin = stats::month_start(dataset().config.period.begin, 2);
  for (const auto& rec : study().job_sbe) {
    EXPECT_GE(dataset().trace.job(rec.job).start, begin);
  }
}

TEST(Utilization, AllFourMetricsPresent) {
  ASSERT_EQ(study().metrics.size(), 4U);
  for (const auto& mc : study().metrics) {
    EXPECT_EQ(mc.jobs_all, study().job_sbe.size());
    EXPECT_LE(mc.jobs_excl, mc.jobs_all);
    EXPECT_GE(mc.spearman_all.coefficient, -1.0);
    EXPECT_LE(mc.spearman_all.coefficient, 1.0);
  }
}

TEST(Utilization, CoreHoursCorrelationStrongest) {
  // The paper's headline ordering: core-hours > nodes > memory metrics.
  double core = 0.0;
  double nodes = 0.0;
  double max_mem = 0.0;
  for (const auto& mc : study().metrics) {
    if (mc.metric == JobMetric::kGpuCoreHours) core = mc.spearman_all.coefficient;
    if (mc.metric == JobMetric::kNodeCount) nodes = mc.spearman_all.coefficient;
    if (mc.metric == JobMetric::kMaxMemory) max_mem = mc.spearman_all.coefficient;
  }
  EXPECT_GT(core, max_mem);
  EXPECT_GT(nodes, max_mem);
  EXPECT_GT(core, 0.2);
}

TEST(Utilization, ExcludingOffendersWeakensExposureCorrelations) {
  for (const auto& mc : study().metrics) {
    if (mc.metric != JobMetric::kGpuCoreHours) continue;
    EXPECT_LT(mc.spearman_excl.coefficient, mc.spearman_all.coefficient + 0.05);
  }
}

TEST(Utilization, UserAggregationAtLeastAsStrong) {
  // Observation 13: userID is a better proxy than per-job core hours.
  double core = 0.0;
  for (const auto& mc : study().metrics) {
    if (mc.metric == JobMetric::kGpuCoreHours) core = mc.spearman_all.coefficient;
  }
  EXPECT_GT(study().user_spearman_all.coefficient, core - 0.1);
  EXPECT_GT(study().users_all, 10U);
}

TEST(Utilization, TopOffendersRankedBySbe) {
  const auto& d = dataset();
  ASSERT_EQ(study().top10_offenders.size(), 10U);
  // Every reported offender really has strikes.
  std::unordered_map<xid::CardId, std::uint64_t> totals;
  for (const auto& s : d.sbe_strikes) ++totals[s.card];
  for (std::size_t i = 1; i < study().top10_offenders.size(); ++i) {
    EXPECT_GE(totals.at(study().top10_offenders[i - 1]),
              totals.at(study().top10_offenders[i]));
  }
}

TEST(Utilization, SortedSeriesBinsShape) {
  const auto bins =
      sorted_series_bins(dataset().trace, study().job_sbe, JobMetric::kGpuCoreHours, 20);
  ASSERT_EQ(bins.metric_mean.size(), 20U);
  ASSERT_EQ(bins.sbe_mean.size(), 20U);
  // Sorted by metric: bin means are nondecreasing.
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_LE(bins.metric_mean[b - 1], bins.metric_mean[b] + 1e-9);
  }
  // Normalized to mean: the weighted average is ~1.
  double avg = 0.0;
  for (const double m : bins.metric_mean) avg += m;
  EXPECT_NEAR(avg / 20.0, 1.0, 0.5);
}

TEST(Utilization, SortedSeriesEmptyInput) {
  const auto bins = sorted_series_bins(dataset().trace, {}, JobMetric::kNodeCount, 10);
  EXPECT_TRUE(bins.metric_mean.empty());
}

/// Test oracle: the exclusion walk jobs_on_nodes replaced -- every
/// placement of every job looked up in a node set.
std::vector<xid::JobId> jobs_on_nodes_by_walk(const sched::JobTrace& trace,
                                              const std::vector<topology::NodeId>& nodes) {
  const std::unordered_set<topology::NodeId> wanted(nodes.begin(), nodes.end());
  std::vector<xid::JobId> out;
  for (const auto& job : trace.jobs()) {
    if (std::any_of(job.nodes.begin(), job.nodes.end(),
                    [&](topology::NodeId n) { return wanted.contains(n); })) {
      out.push_back(job.id);
    }
  }
  return out;
}

TEST(Utilization, OffenderJobsMatchPlacementWalkOnQuickStudy) {
  const auto data = core::run_study(core::quick_config(20151115));
  const auto begin = stats::month_start(data.config.period.begin, 2);
  const auto s = utilization_study(data.trace, data.sbe_strikes, begin, data.config.period.end);

  // The offender nodes as the study derives them: each card's last strike.
  std::unordered_map<xid::CardId, topology::NodeId> card_node;
  for (const auto& strike : data.sbe_strikes) card_node[strike.card] = strike.node;
  std::vector<topology::NodeId> offender_nodes;
  for (const auto card : s.top10_offenders) offender_nodes.push_back(card_node.at(card));
  const auto offender_jobs = jobs_on_nodes(data.trace, offender_nodes);
  EXPECT_EQ(offender_jobs, jobs_on_nodes_by_walk(data.trace, offender_nodes));
  EXPECT_FALSE(offender_jobs.empty());

  // Every metric's excluded series keeps exactly the window jobs the walk
  // does not flag.
  std::size_t kept = 0;
  for (const auto& rec : s.job_sbe) {
    if (!std::binary_search(offender_jobs.begin(), offender_jobs.end(), rec.job)) ++kept;
  }
  EXPECT_LT(kept, s.job_sbe.size());
  for (const auto& mc : s.metrics) EXPECT_EQ(mc.jobs_excl, kept);

  stats::Rng rng{20151115};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<topology::NodeId> nodes(1 + rng.below(12));
    for (auto& node : nodes) node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
    if (trial % 4 == 0) nodes.push_back(nodes.front());  // duplicates are harmless
    ASSERT_EQ(jobs_on_nodes(data.trace, nodes), jobs_on_nodes_by_walk(data.trace, nodes));
  }
}

TEST(Utilization, OffenderJobsOnHandBuiltTraces) {
  const auto router = [](int rank) {
    return topology::gemini_nodes(topology::coord_from_rank(rank));
  };
  const auto r = router(10);
  const auto s = router(11);
  const auto t = router(500);
  const auto far = router(9000);
  const auto job = [](int id, stats::TimeSec start, stats::TimeSec end, sched::NodeSet nodes) {
    sched::JobRecord record;
    record.id = id;
    record.start = start;
    record.end = end;
    record.nodes = std::move(nodes);
    return record;
  };
  // An odd job (s[1] reserved, not held), a job on that reserved half,
  // runs that revisit a router, an empty job, and a reused node.
  const sched::JobTrace trace{{job(0, 0, 10, {r[0], r[1], s[0]}), job(1, 5, 20, {s[1]}),
                               job(2, 6, 30, {t[1], far[0], t[0]}), job(3, 7, 8, {}),
                               job(4, 10, 40, {r[0]})}};
  EXPECT_EQ(jobs_on_nodes(trace, std::vector<topology::NodeId>{s[1]}),
            (std::vector<xid::JobId>{1}));
  EXPECT_EQ(jobs_on_nodes(trace, std::vector<topology::NodeId>{r[0]}),
            (std::vector<xid::JobId>{0, 4}));
  EXPECT_TRUE(jobs_on_nodes(trace, std::vector<topology::NodeId>{far[1]}).empty());
  EXPECT_TRUE(jobs_on_nodes(trace, std::vector<topology::NodeId>{}).empty());
  // Every subset of the nodes involved, against the walk.
  const std::vector<topology::NodeId> pool{r[0], r[1], s[0], s[1], t[0], t[1], far[0], far[1]};
  for (unsigned mask = 0; mask < (1U << pool.size()); ++mask) {
    std::vector<topology::NodeId> nodes;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (((mask >> i) & 1U) != 0) nodes.push_back(pool[i]);
    }
    ASSERT_EQ(jobs_on_nodes(trace, nodes), jobs_on_nodes_by_walk(trace, nodes)) << mask;
  }
}

TEST(SbeStudy, FewerThanFivePercentOfCards) {
  const auto s = sbe_spatial_study(dataset().final_snapshot);
  EXPECT_GT(s.cards_with_any_sbe, 50U);
  EXPECT_LT(s.fraction_of_fleet, 0.05);
}

TEST(SbeStudy, RemovingOffendersHomogenizes) {
  const auto s = sbe_spatial_study(dataset().final_snapshot);
  ASSERT_EQ(s.grids.size(), 3U);
  EXPECT_GT(s.skew[0], s.skew[1]);
  EXPECT_GT(s.skew[1], s.skew[2]);
  EXPECT_GT(s.skew[0] / s.skew[2], 1.5);
}

TEST(SbeStudy, DistinctCardsNearlyCageUniform) {
  // Observation 10: distinct SBE cards spread evenly across cages.
  const auto s = sbe_cage_study(dataset().final_snapshot);
  const auto& d = s.distinct_cards[2];  // top-50 removed
  const auto mx = std::max({d[0], d[1], d[2]});
  const auto mn = std::min({d[0], d[1], d[2]});
  ASSERT_GT(mn, 0U);
  EXPECT_LT(static_cast<double>(mx) / static_cast<double>(mn), 1.5);
}

TEST(SbeStudy, StructureTotalsFavorOnChip) {
  const auto by_structure = fleet_sbe_by_structure(dataset().fleet);
  const auto l2 = by_structure[static_cast<std::size_t>(xid::MemoryStructure::kL2Cache)];
  const auto dev = by_structure[static_cast<std::size_t>(xid::MemoryStructure::kDeviceMemory)];
  EXPECT_GT(l2, dev);
}

TEST(WorkloadChar, ProfilesAndShape) {
  const auto shape = workload_shape(dataset().trace);
  EXPECT_GT(shape.corehours_vs_nodes.coefficient, 0.4);        // Fig. 21(b)
  EXPECT_LT(shape.top_memory_jobs_node_percentile, 0.9);       // Fig. 21(d)
  EXPECT_GT(shape.small_vs_large_max_wall_ratio, 0.6);         // Fig. 21(c)

  const auto profile =
      job_profile(dataset().trace, JobField::kGpuCoreHours, JobField::kNodeCount, 10);
  ASSERT_EQ(profile.key_mean.size(), 10U);
  EXPECT_LT(profile.key_mean.front(), profile.key_mean.back());
}

}  // namespace
}  // namespace titan::analysis
