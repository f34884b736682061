// Every EventFrame kernel must agree with a naive whole-stream oracle on
// the full default-seed study.  Each oracle below is the pre-frame
// algorithm kept as a test-only reference: one scan over the parsed
// stream, per-event topology::locate and ledger lookups, forward window
// scans.  "Agree" is bitwise for counts and exact for doubles (the
// kernels replicate the oracle's arithmetic, not just its value).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/event_frame.hpp"
#include "analysis/events_view.hpp"
#include "analysis/frequency.hpp"
#include "analysis/interruption.hpp"
#include "analysis/prediction.hpp"
#include "analysis/reliability_report.hpp"
#include "analysis/retirement_study.hpp"
#include "analysis/spatial.hpp"
#include "analysis/xid_matrix.hpp"
#include "core/facility.hpp"
#include "par/pool.hpp"
#include "stats/descriptive.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace titan::analysis {
namespace {

using xid::ErrorKind;

const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::default_config());
  return data;
}

const std::vector<parse::ParsedEvent>& parsed() {
  static const std::vector<parse::ParsedEvent> events = as_parsed(dataset().events);
  return events;
}

/// Frame over the console-recovered stream, card join included.
const EventFrame& frame() {
  static const EventFrame f =
      EventFrame::build(parsed(), &dataset().fleet.ledger());
  return f;
}

/// Frame over ground truth (job/root columns populated).
const EventFrame& truth_frame() {
  static const EventFrame f =
      EventFrame::build(std::span<const xid::Event>{dataset().events},
                        &dataset().fleet.ledger());
  return f;
}

void expect_grid_eq(const stats::Grid2D& a, const stats::Grid2D& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_EQ(a.at(r, c), b.at(r, c));
  }
}

std::vector<stats::TimeSec> oracle_times(std::span<const parse::ParsedEvent> events,
                                         ErrorKind kind) {
  std::vector<stats::TimeSec> out;
  for (const auto& e : events) {
    if (e.kind == kind) out.push_back(e.time);
  }
  return out;
}

constexpr std::array kKinds = {
    ErrorKind::kDoubleBitError,  ErrorKind::kOffTheBus,
    ErrorKind::kPageRetirement,  ErrorKind::kGraphicsEngineException,
    ErrorKind::kMemoryPageFault, ErrorKind::kUcHaltNewDriver,
    ErrorKind::kUcHaltOldDriver, ErrorKind::kPreemptiveCleanup};

TEST(FrameEquivalence, MonthlyCounts) {
  const auto& period = dataset().config.period;
  for (const auto kind : kKinds) {
    std::vector<std::uint64_t> oracle(
        static_cast<std::size_t>(stats::month_index(period.end - 1, period.begin) + 1), 0);
    for (const auto t : oracle_times(parsed(), kind)) {
      if (t < period.begin || t >= period.end) continue;
      ++oracle[static_cast<std::size_t>(stats::month_index(t, period.begin))];
    }
    const auto framed = monthly_frequency(frame(), kind, period.begin, period.end);
    EXPECT_EQ(framed.origin, period.begin);
    ASSERT_EQ(framed.counts.size(), oracle.size());
    for (std::size_t m = 0; m < oracle.size(); ++m) EXPECT_EQ(framed.counts[m], oracle[m]);
  }
}

TEST(FrameEquivalence, Mtbf) {
  const auto& period = dataset().config.period;
  for (const auto kind : kKinds) {
    const auto oracle =
        stats::estimate_mtbf(oracle_times(parsed(), kind), period.begin, period.end);
    const auto framed = kind_mtbf(frame(), kind, period.begin, period.end);
    EXPECT_EQ(oracle.mtbf_hours, framed.mtbf_hours);
    EXPECT_EQ(oracle.mean_gap_hours, framed.mean_gap_hours);
    EXPECT_EQ(oracle.median_gap_hours, framed.median_gap_hours);
    EXPECT_EQ(oracle.event_count, framed.event_count);
    EXPECT_EQ(oracle.window_hours, framed.window_hours);
  }
}

TEST(FrameEquivalence, DailyDispersion) {
  const auto& period = dataset().config.period;
  const auto days = static_cast<std::size_t>(
      (period.end - period.begin + stats::kSecondsPerDay - 1) / stats::kSecondsPerDay);
  for (const auto kind : kKinds) {
    std::vector<double> daily(days, 0.0);
    for (const auto t : oracle_times(parsed(), kind)) {
      if (t < period.begin || t >= period.end) continue;
      daily[static_cast<std::size_t>((t - period.begin) / stats::kSecondsPerDay)] += 1.0;
    }
    const double m = stats::mean(daily);
    const double oracle = m == 0.0 ? 0.0 : stats::variance(daily) / m;
    EXPECT_EQ(daily_dispersion_index(frame(), kind, period.begin, period.end), oracle);
  }
}

TEST(FrameEquivalence, CabinetHeatmaps) {
  for (const auto kind : kKinds) {
    stats::Grid2D oracle{static_cast<std::size_t>(topology::kCabinetGridY),
                         static_cast<std::size_t>(topology::kCabinetGridX)};
    for (const auto& e : parsed()) {
      if (e.kind != kind) continue;
      const auto loc = topology::locate(e.node);
      oracle.add(static_cast<std::size_t>(loc.cab_y), static_cast<std::size_t>(loc.cab_x));
    }
    expect_grid_eq(oracle, cabinet_heatmap(frame(), kind));
  }
}

TEST(FrameEquivalence, CageDistributions) {
  const auto& ledger = dataset().fleet.ledger();
  for (const auto kind : kKinds) {
    CageDistribution oracle;
    std::array<std::unordered_set<xid::CardId>, topology::kCagesPerCabinet> cards;
    for (const auto& e : parsed()) {
      if (e.kind != kind) continue;
      const auto cage = static_cast<std::size_t>(topology::locate(e.node).cage);
      ++oracle.event_counts[cage];
      const auto card = ledger.card_at(e.node, e.time);
      if (card != xid::kInvalidCard) cards[cage].insert(card);
    }
    for (std::size_t c = 0; c < cards.size(); ++c) oracle.distinct_cards[c] = cards[c].size();
    const auto framed = cage_distribution(frame(), kind);
    EXPECT_EQ(oracle.event_counts, framed.event_counts);
    EXPECT_EQ(oracle.distinct_cards, framed.distinct_cards);
  }
}

TEST(FrameEquivalence, StructureBreakdown) {
  for (const auto kind : {ErrorKind::kDoubleBitError, ErrorKind::kSingleBitError,
                          ErrorKind::kOffTheBus}) {
    analysis::StructureBreakdown oracle;
    for (const auto& e : parsed()) {
      if (e.kind == kind) ++oracle.counts[static_cast<std::size_t>(e.structure)];
    }
    EXPECT_EQ(oracle.counts, structure_breakdown(frame(), kind).counts);
  }
}

TEST(FrameEquivalence, FollowMatrix) {
  // Oracle: for each event of interest, scan forward through the window
  // and mark each follower kind once.
  const auto kinds = fig13_kinds();
  const auto& events = parsed();
  const auto index_of = [&](ErrorKind k) -> std::size_t {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == k) return i;
    }
    return kinds.size();
  };
  for (const bool include_same : {true, false}) {
    std::vector<std::uint64_t> occurrences(kinds.size(), 0);
    std::vector<std::uint64_t> followed(kinds.size() * kinds.size(), 0);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto a = index_of(events[i].kind);
      if (a == kinds.size()) continue;
      ++occurrences[a];
      std::vector<bool> seen(kinds.size(), false);
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].time - events[i].time >= 300) break;
        const auto b = index_of(events[j].kind);
        if (b == kinds.size() || (!include_same && b == a) || seen[b]) continue;
        seen[b] = true;
        ++followed[a * kinds.size() + b];
      }
    }
    const auto framed = follow_matrix(frame(), kinds, 300.0, include_same);
    EXPECT_EQ(framed.kinds, kinds);
    for (std::size_t a = 0; a < kinds.size(); ++a) {
      for (std::size_t b = 0; b < kinds.size(); ++b) {
        const double oracle =
            occurrences[a] > 0 ? static_cast<double>(followed[a * kinds.size() + b]) /
                                     static_cast<double>(occurrences[a])
                               : 0.0;
        EXPECT_EQ(framed.fractions.at(a, b), oracle) << a << "," << b;
      }
    }
  }
}

TEST(FrameEquivalence, RetirementDelayStudy) {
  // Oracle: one walk over the whole stream in order.
  const auto accounting_from = dataset().config.campaign.timeline.new_driver;
  RetirementDelayStudy oracle;
  bool have_dbe = false;
  bool retirement_since_dbe = false;
  stats::TimeSec last_dbe = 0;
  for (const auto& e : parsed()) {
    if (e.time < accounting_from) continue;
    if (e.kind == ErrorKind::kDoubleBitError) {
      if (have_dbe && !retirement_since_dbe) ++oracle.dbe_pairs_without_retirement;
      have_dbe = true;
      last_dbe = e.time;
      retirement_since_dbe = false;
    } else if (e.kind == ErrorKind::kPageRetirement) {
      retirement_since_dbe = true;
      if (!have_dbe) {
        ++oracle.before_any_dbe;
        continue;
      }
      const double delay = static_cast<double>(e.time - last_dbe);
      oracle.delays_s.push_back(delay);
      if (delay <= 600.0) {
        ++oracle.within_10min;
      } else if (delay <= 6.0 * 3600.0) {
        ++oracle.min10_to_6h;
      } else {
        ++oracle.beyond_6h;
      }
    }
  }
  const auto framed = retirement_delay_study(frame(), accounting_from);
  EXPECT_EQ(oracle.within_10min, framed.within_10min);
  EXPECT_EQ(oracle.min10_to_6h, framed.min10_to_6h);
  EXPECT_EQ(oracle.beyond_6h, framed.beyond_6h);
  EXPECT_EQ(oracle.before_any_dbe, framed.before_any_dbe);
  EXPECT_EQ(oracle.dbe_pairs_without_retirement, framed.dbe_pairs_without_retirement);
  EXPECT_EQ(oracle.delays_s, framed.delays_s);
}

TEST(FrameEquivalence, Interruption) {
  const auto& period = dataset().config.period;
  const auto legacy = interruption_study(std::span<const xid::Event>{dataset().events},
                                         dataset().trace, period.begin, period.end);
  const auto framed =
      interruption_study(truth_frame(), dataset().trace, period.begin, period.end);
  EXPECT_EQ(legacy.total_jobs, framed.total_jobs);
  EXPECT_EQ(legacy.interrupted_jobs, framed.interrupted_jobs);
  EXPECT_EQ(legacy.total_node_hours, framed.total_node_hours);
  EXPECT_EQ(legacy.node_hours_lost, framed.node_hours_lost);
  EXPECT_EQ(legacy.full_machine_mtti_hours, framed.full_machine_mtti_hours);
  for (std::size_t i = 0; i < legacy.by_size.size(); ++i) {
    EXPECT_EQ(legacy.by_size[i].jobs, framed.by_size[i].jobs);
    EXPECT_EQ(legacy.by_size[i].interrupted, framed.by_size[i].interrupted);
  }
}

TEST(FrameEquivalence, Prediction) {
  // Train on the first half, evaluate on the second.  Oracle: forward
  // window scans over the parsed rows for the rules, and pairwise
  // alarm/target comparisons for the evaluation.
  constexpr auto kTarget = ErrorKind::kDoubleBitError;
  constexpr stats::TimeSec kHorizon = 3600;
  const auto& events = parsed();
  const auto half = events.size() / 2;
  const std::span<const parse::ParsedEvent> train{events.data(), half};
  const std::span<const parse::ParsedEvent> eval{events.data() + half, events.size() - half};

  std::array<std::uint64_t, xid::kErrorKindCount> occurrences{};
  std::array<std::uint64_t, xid::kErrorKindCount> followed{};
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++occurrences[static_cast<std::size_t>(train[i].kind)];
    for (std::size_t j = i + 1; j < train.size(); ++j) {
      if (train[j].time - train[i].time >= kHorizon) break;
      if (train[j].kind == kTarget) {
        ++followed[static_cast<std::size_t>(train[i].kind)];
        break;
      }
    }
  }
  std::vector<PrecursorRule> oracle_rules;
  for (std::size_t k = 0; k < xid::kErrorKindCount; ++k) {
    if (occurrences[k] < 5 || static_cast<ErrorKind>(k) == kTarget || followed[k] == 0) {
      continue;
    }
    oracle_rules.push_back(PrecursorRule{
        static_cast<ErrorKind>(k), kTarget,
        static_cast<double>(followed[k]) / static_cast<double>(occurrences[k]),
        occurrences[k]});
  }
  std::stable_sort(oracle_rules.begin(), oracle_rules.end(),
                   [](const PrecursorRule& a, const PrecursorRule& b) {
                     return a.probability > b.probability;
                   });

  const auto predictor =
      FailurePredictor::fit(EventFrame::build(train), kTarget, static_cast<double>(kHorizon));
  ASSERT_EQ(predictor.rules().size(), oracle_rules.size());
  for (std::size_t r = 0; r < oracle_rules.size(); ++r) {
    EXPECT_EQ(predictor.rules()[r].precursor, oracle_rules[r].precursor);
    EXPECT_EQ(predictor.rules()[r].probability, oracle_rules[r].probability);
    EXPECT_EQ(predictor.rules()[r].support, oracle_rules[r].support);
  }

  const auto eval_frame = EventFrame::build(eval);
  const auto targets = oracle_times(eval, kTarget);
  for (const double threshold : {0.1, 0.5}) {
    std::vector<stats::TimeSec> alarm_times;
    for (const auto& e : eval) {
      for (const auto& rule : oracle_rules) {
        if (rule.precursor == e.kind && rule.probability >= threshold) {
          alarm_times.push_back(e.time);
        }
      }
    }
    const auto alarms = predictor.predict(eval_frame, threshold);
    ASSERT_EQ(alarms.size(), alarm_times.size());
    for (std::size_t i = 0; i < alarms.size(); ++i) EXPECT_EQ(alarms[i].time, alarm_times[i]);

    std::size_t true_positives = 0;
    for (const auto a : alarm_times) {
      for (const auto t : targets) {
        if (t > a) {
          true_positives += t - a < kHorizon ? 1 : 0;
          break;
        }
      }
    }
    std::size_t covered = 0;
    for (const auto t : targets) {
      for (const auto a : alarm_times) {
        if (a < t && t - a < kHorizon) {
          ++covered;
          break;
        }
      }
    }
    const auto evaluation = predictor.evaluate(eval_frame, threshold);
    EXPECT_EQ(evaluation.alarms, alarm_times.size());
    EXPECT_EQ(evaluation.true_positives, true_positives);
    EXPECT_EQ(evaluation.targets, targets.size());
    EXPECT_EQ(evaluation.targets_covered, covered);
  }
}

TEST(FrameEquivalence, SmiConsoleComparisonAndMtbfReport) {
  const auto& period = dataset().config.period;
  const auto dbe_times = oracle_times(parsed(), ErrorKind::kDoubleBitError);
  const auto cmp = smi_console_comparison(frame(), dataset().final_snapshot);
  EXPECT_EQ(cmp.console_dbe_count, dbe_times.size());
  EXPECT_EQ(cmp.smi_dbe_count, dataset().final_snapshot.fleet_dbe_total());

  const auto oracle = stats::estimate_mtbf(dbe_times, period.begin, period.end);
  const double datasheet_mtbf_hours = 1.0 / (1.0 / 48.0);  // the default fleet budget
  const auto report = mtbf_report(frame(), period.begin, period.end);
  EXPECT_EQ(report.measured.mtbf_hours, oracle.mtbf_hours);
  EXPECT_EQ(report.measured.event_count, oracle.event_count);
  EXPECT_EQ(report.datasheet_mtbf_hours, datasheet_mtbf_hours);
  EXPECT_EQ(report.improvement_factor, oracle.mtbf_hours / datasheet_mtbf_hours);
}

TEST(FrameEquivalence, RegistrySweepMatchesDirectCallsAtThreadWidths) {
  // The registry's parallel full sweep must reproduce direct one-kernel
  // invocations byte for byte, at serial and wide pool widths alike, and
  // the rendered report must not vary with the width either.
  const auto& registry = study::AnalysisRegistry::standard();
  std::string text_at_1, json_at_1;
  for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    const std::size_t saved = par::thread_count();
    par::set_threads(width);
    const auto context = study::SimulatedSource{core::quick_config(17)}.load();
    const auto sweep = registry.run_all(context);
    for (const auto& name : registry.names()) {
      const std::vector<std::string> one = {name};
      const auto direct = registry.run(context, one);
      ASSERT_EQ(direct.results.size(), 1U) << name;
      const auto* swept = sweep.find(name);
      ASSERT_NE(swept, nullptr) << name;
      EXPECT_EQ(*swept, direct.results[0]) << name << " at width " << width;
    }
    if (width == 1) {
      text_at_1 = sweep.text();
      json_at_1 = sweep.json();
    } else {
      EXPECT_EQ(sweep.text(), text_at_1);
      EXPECT_EQ(sweep.json(), json_at_1);
    }
    par::set_threads(saved);
  }
}

}  // namespace
}  // namespace titan::analysis
