// Extension: checkpoint-interval policy driven by the measured DBE
// MTBF (the fault-tolerance implication the paper's introduction
// motivates: "HPC workloads ... rely on checkpointing mechanisms").
//
// Uses the campaign's actual app-fatal failure stream to (a) validate the
// Young/Daly analytic optimum against trace replay and (b) quantify what
// a wrong MTBF estimate costs.
#include "paper/paper.hpp"

#include <algorithm>
#include <iterator>

#include "analysis/reliability_report.hpp"
#include "ckpt/daly.hpp"
#include "ckpt/replay.hpp"

void titan::paper::ext_checkpoint(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  // App-fatal hardware failures machine-wide (DBE + OTB), the hazard a
  // full-machine application sees, in stream order.
  const auto dbe_rows = frame.rows_of(xid::ErrorKind::kDoubleBitError);
  const auto otb_rows = frame.rows_of(xid::ErrorKind::kOffTheBus);
  std::vector<std::uint32_t> rows;
  std::ranges::merge(dbe_rows, otb_rows, std::back_inserter(rows));
  std::vector<stats::TimeSec> failures;
  for (const auto row : rows) failures.push_back(frame.times()[row]);
  const auto mtbf = stats::estimate_mtbf(failures, period.begin, period.end);

  print_header("Extension -- checkpoint policy from measured MTBF");
  std::printf("  app-fatal hardware failures: %zu   machine MTBF: %.1f h\n",
              mtbf.event_count, mtbf.mtbf_hours);

  ckpt::CheckpointParams params;
  params.checkpoint_cost = 300.0;                   // 5 min defensive dump
  params.restart_cost = 600.0;                      // reload + requeue
  params.mtbf = mtbf.mtbf_hours * 3600.0;
  const double daly = ckpt::daly_interval(params);
  std::printf("  checkpoint cost: %.0f s   restart: %.0f s\n", params.checkpoint_cost,
              params.restart_cost);
  std::printf("  Young interval: %.0f s   Daly interval: %.0f s (%.1f h)\n",
              ckpt::young_interval(params), daly, daly / 3600.0);

  print_header("Interval sweep -- analytic model vs trace replay");
  const double work = 90.0 * 86400.0;  // a 90-day campaign of useful work
  std::vector<double> intervals;
  for (const double mult : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0}) {
    intervals.push_back(daly * mult);
  }
  const auto sweep = ckpt::sweep_intervals(work, params.checkpoint_cost, params.restart_cost,
                                           period.begin, failures, intervals);
  std::printf("  interval (x Daly) | analytic waste | replay waste\n");
  double best_replay = 1.0;
  double best_interval = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double analytic = ckpt::expected_waste_fraction(params, sweep[i].interval);
    std::printf("  %9.2f         | %13s | %s\n", sweep[i].interval / daly,
                render::fmt_percent(analytic).c_str(),
                render::fmt_percent(sweep[i].waste).c_str());
    if (sweep[i].waste < best_replay) {
      best_replay = sweep[i].waste;
      best_interval = sweep[i].interval;
    }
  }
  const double daly_replay = sweep[3].waste;  // the 1.0x point

  checks.check("replay minimum is at or adjacent to the Daly interval",
               best_interval >= daly * 0.2 && best_interval <= daly * 5.0);
  checks.check("Daly point within 2% absolute waste of the replay optimum",
               daly_replay - best_replay <= 0.02);
  checks.check("over-frequent checkpointing (0.1x) is clearly worse", sweep[0].waste > daly_replay);
  checks.check("under-checkpointing (10x) is clearly worse", sweep.back().waste > daly_replay);
}
