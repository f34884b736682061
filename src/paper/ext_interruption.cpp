// Extension: impact of GPU errors on applications -- the question
// the paper's introduction opens with ("we look at the GPU system
// failures specifically to see how they impact the applications (e.g.,
// execution interruption)").
#include "paper/paper.hpp"

#include <algorithm>

#include "analysis/interruption.hpp"
#include "ops/health.hpp"

void titan::paper::ext_interruption(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& period = study.config.period;

  print_header("Extension -- application interruption impact");
  const auto result =
      analysis::interruption_study(study.events, study.trace, period.begin, period.end);
  std::printf("  jobs: %zu   interrupted: %zu (%s)\n", result.total_jobs,
              result.interrupted_jobs, render::fmt_percent(result.interruption_rate()).c_str());
  std::printf("  node-hours: %.3g total, %.3g at risk without checkpointing (%s)\n",
              result.total_node_hours, result.node_hours_lost,
              render::fmt_percent(result.node_hours_lost /
                                  std::max(1.0, result.total_node_hours))
                  .c_str());
  std::printf("  full-machine MTTI: %.1f h\n", result.full_machine_mtti_hours);

  std::printf("\n  interruption rate by job size:\n");
  const char* class_names[4] = {"1-63", "64-511", "512-4095", ">=4096"};
  for (std::size_t c = 0; c < 4; ++c) {
    const auto& cls = result.by_size[c];
    std::printf("    %-9s nodes : %6zu jobs, %5zu interrupted (%s)\n", class_names[c],
                cls.jobs, cls.interrupted,
                render::fmt_percent(cls.interruption_rate()).c_str());
  }

  print_header("Extension -- operator health-policy replay");
  ops::NodeHealthMonitor monitor;
  {
    // Replay the stream with a weekly diagnostics review, as operators
    // would run it.
    stats::TimeSec next_review = period.begin + 7 * stats::kSecondsPerDay;
    for (const auto& e : study.events) {
      while (e.time >= next_review) {
        (void)monitor.review_suspects(next_review);
        next_review += 7 * stats::kSecondsPerDay;
      }
      (void)monitor.observe(e);
    }
    (void)monitor.review_suspects(period.end);
  }
  std::size_t takedowns = 0;
  std::size_t escalations = 0;
  std::size_t suspects_flagged = 0;
  for (const auto& action : monitor.log()) {
    switch (action.kind) {
      case ops::ActionKind::kTakeDown: ++takedowns; break;
      case ops::ActionKind::kEscalateHotSpare: ++escalations; break;
      case ops::ActionKind::kFlagSuspect: ++suspects_flagged; break;
      default: break;
    }
  }
  std::printf("  take-downs: %zu   hot-spare escalations: %zu   diagnostics flags: %zu\n",
              takedowns, escalations, suspects_flagged);
  const auto suspects = monitor.suspects();
  const bool bad_node_flagged =
      std::find(suspects.begin(), suspects.end(), study.bad_node) != suspects.end();
  std::printf("  Observation 8 node %s flagged for diagnostics: %s\n",
              topology::cname(study.bad_node).c_str(), bad_node_flagged ? "YES" : "no");

  checks.check("larger jobs are interrupted more often (monotone size classes)",
               result.by_size[0].interruption_rate() <=
                       result.by_size[2].interruption_rate() &&
                   result.by_size[1].interruption_rate() <=
                       result.by_size[3].interruption_rate());
  checks.check("lost node-hours are a small fraction of delivered hours (< 20%)",
               result.node_hours_lost < 0.2 * result.total_node_hours);
  checks.check("every hardware crash produced a take-down", takedowns > 100);
  checks.check("the planted bad node is flagged for diagnostics", bad_node_flagged);
}
