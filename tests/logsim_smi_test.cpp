#include "logsim/smi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/facility.hpp"

namespace titan::logsim {
namespace {

/// Reference per_job_sbe_counts: one sorted strike-time vector per node
/// slot, range-counted by binary search.  The library's CSR index must
/// reproduce it exactly.
std::vector<JobSbeRecord> oracle_per_job_sbe_counts(const std::vector<fault::SbeStrike>& strikes,
                                                    const sched::JobTrace& trace,
                                                    stats::TimeSec window_begin,
                                                    stats::TimeSec window_end) {
  std::vector<std::vector<stats::TimeSec>> by_node(
      static_cast<std::size_t>(topology::kNodeSlots));
  for (const auto& s : strikes) {
    by_node[static_cast<std::size_t>(s.node)].push_back(s.time);
  }
  for (auto& times : by_node) std::sort(times.begin(), times.end());

  std::vector<JobSbeRecord> out;
  for (const auto& job : trace.jobs()) {
    if (job.start < window_begin || job.start >= window_end) continue;
    JobSbeRecord rec;
    rec.job = job.id;
    for (const topology::NodeId node : job.nodes) {
      const auto& times = by_node[static_cast<std::size_t>(node)];
      const auto lo = std::lower_bound(times.begin(), times.end(), job.start);
      const auto hi = std::lower_bound(times.begin(), times.end(), job.end);
      rec.sbe_count += static_cast<std::uint64_t>(hi - lo);
    }
    out.push_back(rec);
  }
  return out;
}

void expect_same_counts(const std::vector<JobSbeRecord>& actual,
                        const std::vector<JobSbeRecord>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].job, expected[i].job) << i;
    EXPECT_EQ(actual[i].sbe_count, expected[i].sbe_count) << i;
  }
}

const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::quick_config(21));
  return data;
}

TEST(Smi, SnapshotCoversFleet) {
  const auto& snap = dataset().final_snapshot;
  EXPECT_EQ(snap.records.size(), static_cast<std::size_t>(topology::kComputeNodes));
  for (const auto& r : snap.records) {
    EXPECT_NE(r.serial, xid::kInvalidCard);
    EXPECT_FALSE(topology::is_service_node(r.node));
    EXPECT_GT(r.temperature_f, 50.0);
    EXPECT_LT(r.temperature_f, 130.0);
  }
}

TEST(Smi, UndercountsDbesVsConsole) {
  // Observation 2: "nvidia-smi output reports fewer DBEs than our console
  // log filtering method" (InfoROM commits lost on fast node death).
  std::uint64_t console_dbe = 0;
  for (const auto& e : dataset().events) {
    if (e.kind == xid::ErrorKind::kDoubleBitError) ++console_dbe;
  }
  const auto smi_dbe = dataset().final_snapshot.fleet_dbe_total();
  EXPECT_LE(smi_dbe, console_dbe);
}

TEST(Smi, SbeTotalsMatchStrikeStream) {
  // The snapshot aggregates exactly the strikes committed to InfoROMs of
  // still-installed cards; pulled cards keep their history off-snapshot.
  std::uint64_t snapshot_total = dataset().final_snapshot.fleet_sbe_total();
  EXPECT_LE(snapshot_total, dataset().sbe_strikes.size());
  EXPECT_GT(snapshot_total, dataset().sbe_strikes.size() / 2);
}

TEST(Smi, SbeSkewExists) {
  // A handful of cards must dominate the counters.
  const auto& snap = dataset().final_snapshot;
  std::vector<std::uint64_t> counts;
  for (const auto& r : snap.records) {
    if (r.sbe_total > 0) counts.push_back(r.sbe_total);
  }
  ASSERT_GT(counts.size(), 50U);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t top10 = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i < 10) top10 += counts[i];
    total += counts[i];
  }
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(total), 0.3);
}

TEST(Smi, PerJobCountsOnlyWindowJobs) {
  const auto& d = dataset();
  const auto begin = d.config.period.begin + 30 * stats::kSecondsPerDay;
  const auto end = d.config.period.end;
  const auto records = per_job_sbe_counts(d.sbe_strikes, d.trace, begin, end);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    const auto& job = d.trace.job(rec.job);
    EXPECT_GE(job.start, begin);
    EXPECT_LT(job.start, end);
  }
}

TEST(Smi, PerJobCountsAttributeStrikesCorrectly) {
  // Build a tiny synthetic case: strikes on known nodes/times.
  std::vector<sched::JobRecord> jobs(1);
  jobs[0].id = 0;
  jobs[0].user = 1;
  jobs[0].start = 1000;
  jobs[0].end = 2000;
  jobs[0].nodes = {5, 6};
  const sched::JobTrace trace{std::move(jobs)};

  std::vector<fault::SbeStrike> strikes(4);
  strikes[0].time = 1500;
  strikes[0].node = 5;  // counted
  strikes[1].time = 1500;
  strikes[1].node = 7;  // wrong node
  strikes[2].time = 999;
  strikes[2].node = 6;  // before job
  strikes[3].time = 1999;
  strikes[3].node = 6;  // counted
  const auto records = per_job_sbe_counts(strikes, trace, 0, 10000);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].sbe_count, 2U);
}

TEST(Smi, PerJobCountsMatchOracleOnQuickStudyWindow) {
  const auto& d = dataset();
  const auto begin = d.config.period.begin;
  const auto end = d.config.period.end;
  const auto records = per_job_sbe_counts(d.sbe_strikes, d.trace, begin, end);
  ASSERT_FALSE(records.empty());
  std::uint64_t attributed = 0;
  for (const auto& rec : records) attributed += rec.sbe_count;
  EXPECT_GT(attributed, 0U);
  expect_same_counts(records, oracle_per_job_sbe_counts(d.sbe_strikes, d.trace, begin, end));
}

TEST(Smi, PerJobCountsMatchOracleOnUnsortedStrikes) {
  // Strikes out of time and node order, with repeats, on the first and
  // last node ids, plus jobs sharing nodes, a zero-length job, and a job
  // whose one placement run spans 64 torus slots.
  std::vector<sched::JobRecord> jobs(5);
  jobs[0].id = 0;
  jobs[0].start = 100;
  jobs[0].end = 500;
  jobs[0].nodes = {0, 3};
  jobs[1].id = 1;
  jobs[1].start = 300;
  jobs[1].end = 900;
  jobs[1].nodes = {3, topology::kNodeSlots - 1};
  jobs[2].id = 2;
  jobs[2].start = 400;
  jobs[2].end = 400;
  jobs[2].nodes = {0};
  jobs[3].id = 3;
  jobs[3].start = 950;
  jobs[3].end = 2000;
  jobs[3].nodes = {7};
  jobs[4].id = 4;
  jobs[4].start = 950;  // strikes at both ends of [start, end)
  jobs[4].end = 1999;
  jobs[4].nodes.append_slots(sched::torus_slot(7) - 4, 64);
  const sched::JobTrace trace{std::move(jobs)};

  const std::vector<std::pair<stats::TimeSec, topology::NodeId>> hits = {
      {800, topology::kNodeSlots - 1}, {450, 3}, {120, 0}, {450, 3}, {99, 0},
      {500, 0}, {310, 3}, {899, topology::kNodeSlots - 1}, {1500, 7}, {400, 0},
      {900, topology::kNodeSlots - 1}, {200, 3}, {1999, 7}, {950, 7}};
  std::vector<fault::SbeStrike> strikes;
  for (const auto& [time, node] : hits) {
    fault::SbeStrike s;
    s.time = time;
    s.node = node;
    strikes.push_back(s);
  }
  for (const auto& [begin, end] : {std::pair<stats::TimeSec, stats::TimeSec>{0, 10000},
                                   {300, 960}, {401, 950}}) {
    expect_same_counts(per_job_sbe_counts(strikes, trace, begin, end),
                       oracle_per_job_sbe_counts(strikes, trace, begin, end));
  }
  const auto all = per_job_sbe_counts(strikes, trace, 0, 10000);
  ASSERT_EQ(all.size(), 5U);
  EXPECT_EQ(all[0].sbe_count, 6U);  // node 0: 120, 400; node 3: 450, 450, 310, 200
  EXPECT_EQ(all[1].sbe_count, 5U);  // node 3: 450, 450, 310; last slot: 800, 899
  EXPECT_EQ(all[2].sbe_count, 0U);
  EXPECT_EQ(all[3].sbe_count, 3U);
  EXPECT_EQ(all[4].sbe_count, 2U);  // node 7: 950, 1500
}

TEST(Smi, MoreDbeThanSbeCardsExist) {
  // The paper's logging inconsistency: some cards show more DBEs than
  // SBEs -- here it arises honestly (a DBE on a card that never had SBEs).
  std::size_t inconsistent = 0;
  for (const auto& r : dataset().final_snapshot.records) {
    if (r.dbe_total > r.sbe_total) ++inconsistent;
  }
  EXPECT_GT(inconsistent, 0U);
}

}  // namespace
}  // namespace titan::logsim
