// Fig. 2 + Observation 1: monthly double-bit-error frequency and MTBF.
#include "paper/paper.hpp"

#include "analysis/frequency.hpp"
#include "analysis/reliability_report.hpp"
#include "stats/bootstrap.hpp"
#include "stats/reliability.hpp"

void titan::paper::fig02(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  print_header("Fig. 2 -- Monthly frequency of double bit errors (Jun'13-Feb'15)");
  const auto series = analysis::monthly_frequency(frame, xid::ErrorKind::kDoubleBitError,
                                                  period.begin, period.end);
  print_block(render::bar_chart(series.labels(), series.counts));
  std::printf("  total DBEs: %llu\n", static_cast<unsigned long long>(series.total()));

  print_header("Observation 1 -- DBE MTBF");
  const auto report = analysis::mtbf_report(frame, period.begin, period.end);
  // Bootstrap error bars on the mean inter-arrival gap (Obs. 1 rigor).
  const auto dbe_times = frame.times_of(xid::ErrorKind::kDoubleBitError);
  const auto gaps =
      stats::inter_arrival_seconds({dbe_times.begin(), dbe_times.end()});
  std::vector<double> gap_hours;
  gap_hours.reserve(gaps.size());
  for (const double g : gaps) gap_hours.push_back(g / 3600.0);
  const auto ci = stats::bootstrap_mean_ci(gap_hours);
  print_row("DBE MTBF (hours)",
            render::fmt_double(kDbeMtbfHours, 0) + " (approx. one per week)",
            render::fmt_double(report.measured.mtbf_hours, 1) + "  (mean gap 95% CI [" +
                render::fmt_double(ci.lower, 1) + ", " +
                render::fmt_double(ci.upper, 1) + "])");
  print_row("vendor-datasheet fleet MTBF (hours)",
            "significantly lower than field data",
            render::fmt_double(report.datasheet_mtbf_hours, 1) + " (model)");
  print_row("field improvement over datasheet", "> 1x",
            render::fmt_double(report.improvement_factor, 2) + "x");

  checks.check("MTBF within 1.5x band of paper's 160 h",
               report.measured.mtbf_hours > kDbeMtbfHours / kDbeMtbfToleranceFactor &&
                   report.measured.mtbf_hours < kDbeMtbfHours * kDbeMtbfToleranceFactor);
  const double mean_month =
      static_cast<double>(series.total()) / static_cast<double>(series.counts.size());
  checks.check("no bursty month (max month < 4x mean month)",
               static_cast<double>(std::ranges::max(series.counts)) < 4.0 * mean_month);
  checks.check("field MTBF beats datasheet estimate", report.improvement_factor > 1.0);
}
