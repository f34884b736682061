// Fig. 11: XID 59 / 62 (internal micro-controller halt) -- the halt XID
// switches with the driver stack, and neither is bursty (Observation 6).
#include "paper/paper.hpp"

#include "analysis/frequency.hpp"

void titan::paper::fig11(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  print_header("Fig. 11 -- Monthly frequency of XID 59 and XID 62 (uC halt)");
  const auto s59 = analysis::monthly_frequency(frame, xid::ErrorKind::kUcHaltOldDriver,
                                               period.begin, period.end);
  const auto s62 = analysis::monthly_frequency(frame, xid::ErrorKind::kUcHaltNewDriver,
                                               period.begin, period.end);
  std::printf("  XID 59 (old driver):\n");
  print_block(render::bar_chart(s59.labels(), s59.counts));
  std::printf("  XID 62 (new driver, thermal):\n");
  print_block(render::bar_chart(s62.labels(), s62.counts));

  const auto new_driver = study.config.campaign.timeline.new_driver;
  bool eras_clean = true;
  for (const auto time : frame.times_of(xid::ErrorKind::kUcHaltOldDriver)) {
    if (time >= new_driver) eras_clean = false;
  }
  for (const auto time : frame.times_of(xid::ErrorKind::kUcHaltNewDriver)) {
    if (time < new_driver) eras_clean = false;
  }
  const double d59 = analysis::daily_dispersion_index(frame, xid::ErrorKind::kUcHaltOldDriver,
                                                      period.begin, new_driver);
  const double d62 = analysis::daily_dispersion_index(frame, xid::ErrorKind::kUcHaltNewDriver,
                                                      new_driver, period.end);
  print_row("XID 59 only before Jan'14 / 62 only after", "clean switchover",
            eras_clean ? "clean" : "VIOLATED");
  print_row("dispersion (59, 62)", "not bursty (near 1)",
            render::fmt_double(d59, 2) + ", " + render::fmt_double(d62, 2));

  checks.check("driver-era switchover is clean", eras_clean);
  checks.check("both halts occur regularly", s59.total() > 5 && s62.total() > 20);
  checks.check("not bursty (dispersion <= 2)",
               d59 <= kNonBurstyDispersionAtMost &&
                   d62 <= kNonBurstyDispersionAtMost);
}
