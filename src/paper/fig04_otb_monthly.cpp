// Fig. 4: monthly frequency of Off-the-bus errors -- the 2013 solder
// epidemic and its resolution (Observation 4).
#include "paper/paper.hpp"

#include "analysis/frequency.hpp"

void titan::paper::fig04(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  print_header("Fig. 4 -- Monthly frequency of Off the bus errors");
  const auto series =
      analysis::monthly_frequency(frame, xid::ErrorKind::kOffTheBus, period.begin, period.end);
  print_block(render::bar_chart(series.labels(), series.counts));

  const auto fix = study.config.campaign.timeline.solder_fix;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for (std::size_t m = 0; m < series.counts.size(); ++m) {
    const auto month_begin = stats::month_start(period.begin, static_cast<int>(m));
    (month_begin < fix ? before : after) += series.counts[m];
  }
  print_row("OTB before Dec'13 rework", "dominant, clustered", std::to_string(before) + " events");
  print_row("OTB after rework", "almost negligible", std::to_string(after) + " events");

  checks.check("epidemic happened (>= 40 events pre-fix)", before >= 40);
  checks.check("post-fix share <= 25% of total",
               static_cast<double>(after) / static_cast<double>(before + after) <=
                   kOtbPostFixShareAtMost);
  checks.check("epidemic ramps up toward the rework (last pre-fix month >= first)",
               series.counts[5] >= series.counts[0]);
}
