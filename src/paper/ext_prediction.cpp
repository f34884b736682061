// Extension: precursor-based failure prediction (the proactive-
// management direction the paper points at via Observation 9 and its
// related work [11-13]).
//
// Trains on the first 14 months of the campaign, evaluates on the last 7,
// and sweeps the alarm threshold to trace the precision/recall frontier
// for predicting "GPU stopped processing" (XID 43) and page retirements.
#include "paper/paper.hpp"

#include <algorithm>

#include "analysis/prediction.hpp"

namespace {

/// Fit, print the learned rules and the threshold sweep; returns the fit.
titan::analysis::FailurePredictor run_target(const titan::analysis::EventFrame& train,
                                             const titan::analysis::EventFrame& eval,
                                             titan::xid::ErrorKind target, double horizon_s) {
  using namespace titan;
  auto predictor = analysis::FailurePredictor::fit(train, target, horizon_s);
  std::printf("  learned rules (target %s, horizon %.0f s):\n",
              std::string{xid::token(target)}.c_str(), horizon_s);
  for (const auto& rule : predictor.rules()) {
    std::printf("    %-6s -> %-6s  P=%.2f  (support %llu)\n",
                std::string{xid::token(rule.precursor)}.c_str(),
                std::string{xid::token(rule.target)}.c_str(), rule.probability,
                static_cast<unsigned long long>(rule.support));
  }
  std::printf("  threshold | alarms | precision | recall | F1\n");
  for (const double threshold : {0.1, 0.3, 0.5, 0.7}) {
    const auto result = predictor.evaluate(eval, threshold);
    std::printf("  %9.1f | %6zu | %9.2f | %6.2f | %.2f\n", threshold, result.alarms,
                result.precision(), result.recall(), result.f1());
  }
  return predictor;
}

}  // namespace

void titan::paper::ext_prediction(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();

  // 14-month training slice / 7-month evaluation slice, split at the
  // first row at or after the split time (the stream is time-sorted).
  const auto split = stats::month_start(study.config.period.begin, 14);
  const auto times = frame.times();
  const auto first_eval = static_cast<std::size_t>(
      std::partition_point(times.begin(), times.end(),
                           [&](stats::TimeSec t) { return t < split; }) -
      times.begin());
  std::vector<parse::ParsedEvent> rows;
  rows.reserve(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) rows.push_back(frame.row(i));
  const auto train = analysis::EventFrame::build(std::span{rows}.first(first_eval));
  const auto eval = analysis::EventFrame::build(std::span{rows}.subspan(first_eval));
  std::printf("  training events: %zu   evaluation events: %zu\n", train.size(), eval.size());

  print_header("Extension -- predicting XID 43 (GPU stopped processing)");
  const auto predictor43 = run_target(train, eval, xid::ErrorKind::kGpuStoppedProcessing, 300.0);

  print_header("Extension -- predicting XID 63 (page retirement)");
  const auto predictor63 = run_target(train, eval, xid::ErrorKind::kPageRetirement, 600.0);

  // Shape checks: the XID 13 -> 43 relationship must be learnable and
  // carry predictive power out of sample.
  bool found_13_rule = false;
  for (const auto& rule : predictor43.rules()) {
    if (rule.precursor == xid::ErrorKind::kGraphicsEngineException && rule.probability > 0.2) {
      found_13_rule = true;
    }
  }
  const auto eval43 = predictor43.evaluate(eval, 0.3);

  // The learned DBE->63 probability is diluted by the training months
  // before Jan'14, when the retirement XID did not exist yet (roughly
  // half the slice) -- the operational lesson of Observation 5 again.
  bool found_dbe_rule = false;
  for (const auto& rule : predictor63.rules()) {
    if (rule.precursor == xid::ErrorKind::kDoubleBitError && rule.probability > 0.08) {
      found_dbe_rule = true;
    }
  }

  checks.check("XID 13 learned as an XID 43 precursor", found_13_rule);
  checks.check("out-of-sample precision >= 0.25 at threshold 0.3", eval43.precision() >= 0.25);
  checks.check("out-of-sample recall >= 0.25 at threshold 0.3", eval43.recall() >= 0.25);
  checks.check("DBE learned as a retirement precursor", found_dbe_rule);
}
