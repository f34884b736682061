// Fig. 6: monthly frequency of ECC page retirement errors -- a new XID
// that only exists from Jan'2014 (Observation 5).
#include "paper/paper.hpp"

#include "analysis/frequency.hpp"

void titan::paper::fig06(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  print_header("Fig. 6 -- Monthly frequency of ECC page retirement errors");
  const auto series = analysis::monthly_frequency(frame, xid::ErrorKind::kPageRetirement,
                                                  period.begin, period.end);
  print_block(render::bar_chart(series.labels(), series.counts));
  std::printf("  total retirements logged: %llu\n",
              static_cast<unsigned long long>(series.total()));

  const auto new_driver = study.config.campaign.timeline.new_driver;
  std::uint64_t before = 0;
  for (std::size_t m = 0; m < series.counts.size(); ++m) {
    if (stats::month_start(period.begin, static_cast<int>(m)) < new_driver) {
      before += series.counts[m];
    }
  }
  print_row("retirements before Jan'14", "0 (XID did not exist)", std::to_string(before));
  print_row("retirements after Jan'14", "a few per month", std::to_string(series.total() - before));

  checks.check("zero retirement events before the new driver", before == 0);
  checks.check("retirements occur after Jan'14", series.total() > 10);
  checks.check("rate is a few per month (not hundreds)", series.total() < 200);
}
