// Figs. 16-19: one job metric against per-job SBE counts, normalized/
// sorted series, Spearman/Pearson, and the exclude-top-10-offenders
// rerun.  Four table rows over one shared function.
#include "paper/paper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace titan::paper {

namespace {

struct MetricFigureSpec {
  analysis::JobMetric metric{};
  const char* figure;          ///< "Fig. 16", ...
  const char* paper_spearman;  ///< the paper's claim, as text
  /// Shape checks.
  double spearman_all_min = -1.0;
  double spearman_all_max = 1.0;
  bool expect_excl_below_half = false;
  /// Fig. 19's cross-figure ordering: this metric is the strongest.
  bool expect_strongest = false;
};

// Fig. 16: maximum memory consumption vs SBEs (Observation 11: weak).
constexpr MetricFigureSpec kFig16{analysis::JobMetric::kMaxMemory, "Fig. 16",
                                  "< 0.50 (very little correlation)", -0.3,
                                  kMemorySpearmanBelow};
// Fig. 17: total memory consumption vs SBEs (Observation 11: weak).
constexpr MetricFigureSpec kFig17{analysis::JobMetric::kTotalMemory, "Fig. 17",
                                  "< 0.50 (very little correlation)", -0.3,
                                  kMemorySpearmanBelow};
// Fig. 18: node count vs SBEs (paper: Spearman 0.57; drops below 0.50
// without the top-10 offenders).
constexpr MetricFigureSpec kFig18{analysis::JobMetric::kNodeCount, "Fig. 18", "0.57", 0.35,
                                  0.80, true};
// Fig. 19: GPU core hours vs SBEs (paper: Spearman 0.70, the strongest
// job-level correlate; drops below 0.50 without the top-10 offenders).
constexpr MetricFigureSpec kFig19{analysis::JobMetric::kGpuCoreHours, "Fig. 19", "0.70", 0.45,
                                  0.90, true, true};

/// Prints the figure and evaluates its checks.
void run_metric_figure(const MetricFigureSpec& spec, const PaperInputs& in, Checks& checks) {
  const auto& study = in.utilization();
  const analysis::MetricCorrelation* mc = nullptr;
  for (const auto& m : study.metrics) {
    if (m.metric == spec.metric) mc = &m;
  }
  if (mc == nullptr) {
    throw std::logic_error{std::string{spec.figure} + ": metric missing from the study"};
  }

  print_header(std::string{spec.figure} + " -- " +
               std::string{analysis::metric_name(spec.metric)} + " vs single bit errors");
  std::printf("  window jobs: %zu   (excluding top-10 offender jobs: %zu)\n", mc->jobs_all,
              mc->jobs_excl);

  // The paper's presentation: jobs sorted by the metric, both series
  // normalized to their means, shown here as 20 bins.
  const auto bins = analysis::sorted_series_bins(in.study().trace, study.job_sbe, spec.metric, 20);
  std::printf("  bin |   metric/mean |  SBE/mean\n");
  for (std::size_t b = 0; b < bins.metric_mean.size(); ++b) {
    std::printf("  %3zu | %13.3f | %9.3f\n", b + 1, bins.metric_mean[b], bins.sbe_mean[b]);
  }

  print_row("Spearman (all jobs)", spec.paper_spearman,
            render::fmt_double(mc->spearman_all.coefficient, 2) +
                " (p=" + render::fmt_double(mc->spearman_all.p_value, 4) + ")");
  print_row("Pearson (all jobs)", "lower than Spearman (nonlinear relationship)",
            render::fmt_double(mc->pearson_all.coefficient, 2));
  print_row("Spearman excluding top-10 offender jobs", "weakened",
            render::fmt_double(mc->spearman_excl.coefficient, 2));

  checks.check("Spearman (all jobs) within the paper's band",
               mc->spearman_all.coefficient >= spec.spearman_all_min &&
                   mc->spearman_all.coefficient <= spec.spearman_all_max);
  checks.check("correlation is statistically significant (p < 0.05) or negligible",
               mc->spearman_all.significant() || std::abs(mc->spearman_all.coefficient) < 0.2);
  if (spec.expect_excl_below_half) {
    checks.check("excluding top-10 offenders drops Spearman below 0.50",
                 mc->spearman_excl.coefficient < kExclTop10SpearmanBelow);
  }
  if (spec.expect_strongest) {
    double strongest_other = -1.0;
    for (const auto& m : study.metrics) {
      if (m.metric != spec.metric) {
        strongest_other = std::max(strongest_other, m.spearman_all.coefficient);
      }
    }
    checks.check("GPU core hours is the strongest job-level correlate",
                 mc->spearman_all.coefficient > strongest_other);
  }
}

}  // namespace

void fig16(const PaperInputs& in, Checks& checks) { run_metric_figure(kFig16, in, checks); }
void fig17(const PaperInputs& in, Checks& checks) { run_metric_figure(kFig17, in, checks); }
void fig18(const PaperInputs& in, Checks& checks) { run_metric_figure(kFig18, in, checks); }
void fig19(const PaperInputs& in, Checks& checks) { run_metric_figure(kFig19, in, checks); }

}  // namespace titan::paper
