// Section 4: correlation between GPU resource utilization and SBE counts
// (Figs. 16-20, Observations 11-13).
//
// Inputs are the per-job SBE records from the before/after nvidia-smi
// framework plus the job log.  Every correlation is computed twice: over
// all jobs, and excluding jobs that used any of the top-10 SBE offender
// cards -- the paper's robustness check.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "logsim/smi.hpp"
#include "sched/job.hpp"
#include "stats/correlation.hpp"

namespace titan::analysis {

/// Which job metric a figure correlates against SBEs.
enum class JobMetric : std::uint8_t {
  kMaxMemory,    ///< Fig. 16
  kTotalMemory,  ///< Fig. 17
  kNodeCount,    ///< Fig. 18
  kGpuCoreHours, ///< Fig. 19
};

[[nodiscard]] std::string_view metric_name(JobMetric metric) noexcept;
[[nodiscard]] double metric_value(const sched::JobRecord& job, JobMetric metric) noexcept;

/// Correlations for one metric, all-jobs and offenders-excluded.
struct MetricCorrelation {
  JobMetric metric{};
  stats::Correlation spearman_all;
  stats::Correlation pearson_all;
  stats::Correlation spearman_excl;   ///< excluding top-10 offender jobs
  stats::Correlation pearson_excl;
  std::size_t jobs_all = 0;
  std::size_t jobs_excl = 0;
};

/// The full Section 4 study over a measurement window.
struct UtilizationStudy {
  std::vector<logsim::JobSbeRecord> job_sbe;  ///< window jobs, trace order
  std::vector<MetricCorrelation> metrics;     ///< one per JobMetric
  /// Fig. 20: per-user aggregation of core-hours vs SBEs.
  stats::Correlation user_spearman_all;
  stats::Correlation user_spearman_excl;
  std::size_t users_all = 0;
  std::size_t users_excl = 0;
  std::vector<xid::CardId> top10_offenders;
};

/// Ids of the jobs whose allocation includes any of `nodes`, ascending and
/// unique, read from those nodes' occupancy slices of the trace.
[[nodiscard]] std::vector<xid::JobId> jobs_on_nodes(const sched::JobTrace& trace,
                                                    std::span<const topology::NodeId> nodes);

/// `strikes` is the full campaign strike stream; offender ranking uses
/// whole-campaign totals (what the operations team knows), while job SBE
/// deltas come only from the [window_begin, window_end) framework data.
[[nodiscard]] UtilizationStudy utilization_study(const sched::JobTrace& trace,
                                                 const std::vector<fault::SbeStrike>& strikes,
                                                 stats::TimeSec window_begin,
                                                 stats::TimeSec window_end);

/// The paper's rendering for Figs. 16-19: jobs sorted by a metric, both
/// series normalized to their own mean, then bucketed for display.
struct SortedSeriesBins {
  std::vector<double> metric_mean;  ///< per-bin mean of normalized metric
  std::vector<double> sbe_mean;     ///< per-bin mean of normalized SBE count
};

[[nodiscard]] SortedSeriesBins sorted_series_bins(const sched::JobTrace& trace,
                                                  const std::vector<logsim::JobSbeRecord>& jobs,
                                                  JobMetric metric, std::size_t bins);

}  // namespace titan::analysis
