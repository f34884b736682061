// Ablation: the design choices DESIGN.md calls out, swept through
// the runtime fault-model parameters (12-month campaigns, fixed seed).
//
//  (a) DBE thermal sensitivity -> Fig. 3(b) cage ratio responds, and a
//      factor of 1.0 erases the cage effect (causality check),
//  (b) retirement logging probability -> the Fig. 8 "missing retirement"
//      puzzle scales with the loss knob,
//  (c) hot-spare pull threshold -> pulls vs repeat DBEs trade-off.
#include "paper/paper.hpp"

#include "analysis/retirement_study.hpp"
#include "analysis/spatial.hpp"

namespace {

using namespace titan;

/// A 12-month campaign (seed 404) at a boosted DBE rate, so per-cage
/// counts carry statistical weight for the sweeps (this is an ablation,
/// not a reproduction).
core::FacilityConfig ablation_config(double dbe_mtbf_hours) {
  auto config = core::default_config(404);
  config.campaign.model.dbe_mtbf_hours = dbe_mtbf_hours;
  config.period.begin = stats::to_time(stats::CivilDate{2013, 6, 1});
  config.period.end = stats::to_time(stats::CivilDate{2014, 6, 1});
  config.workload.period = config.period;
  config.campaign.period = config.period;
  return config;
}

}  // namespace

void titan::paper::ablation(const PaperInputs& /*in*/, Checks& checks) {
  print_header("Ablation (a) -- DBE thermal factor vs cage ratio (Fig. 3b)");
  std::vector<double> ratios;
  for (const double factor : {1.0, 1.45, 2.2}) {
    auto config = ablation_config(30.0);
    config.campaign.model.dbe_thermal_factor = factor;
    const auto study = core::run_study(config);
    const auto frame = analysis::EventFrame::build(study.events, &study.fleet.ledger());
    const auto cages = analysis::cage_distribution(frame, xid::ErrorKind::kDoubleBitError);
    ratios.push_back(cages.top_to_bottom_ratio());
    std::printf("  factor %.2f : top/bottom cage ratio %.2f  (DBEs: %llu)\n", factor,
                ratios.back(), static_cast<unsigned long long>(cages.total_events()));
  }
  checks.check("cage ratio responds monotonically to the thermal factor",
               ratios[0] < ratios[1] && ratios[1] < ratios[2]);
  checks.check("factor 1.0 erases the cage effect (ratio in [0.5, 1.6])",
               ratios[0] > 0.5 && ratios[0] < 1.6);

  print_header("Ablation (b) -- retirement logging probability vs Fig. 8 puzzle");
  std::vector<std::uint64_t> missing;
  std::vector<std::uint64_t> fast;
  for (const double prob : {0.1, 0.35, 0.9}) {
    auto config = ablation_config(30.0);
    config.campaign.model.retirement_logged_after_dbe = prob;
    const auto study = core::run_study(config);
    const auto delays = analysis::retirement_delay_study(
        analysis::EventFrame::build(study.events), config.campaign.timeline.new_driver);
    missing.push_back(delays.dbe_pairs_without_retirement);
    fast.push_back(delays.within_10min);
    std::printf("  P(logged) %.2f : fast retirements %llu, DBE pairs w/o retirement %llu\n",
                prob, static_cast<unsigned long long>(fast.back()),
                static_cast<unsigned long long>(missing.back()));
  }
  checks.check("more logging -> more fast retirements", fast[0] <= fast[1] && fast[1] <= fast[2]);
  checks.check("more logging -> fewer retirement-free DBE pairs",
               missing[0] >= missing[1] && missing[1] >= missing[2]);

  print_header("Ablation (c) -- hot-spare pull threshold");
  std::vector<std::size_t> pulls;
  std::vector<std::size_t> repeats;
  for (const std::uint64_t threshold : {1ULL, 2ULL, 4ULL}) {
    auto config = ablation_config(10.0);
    config.campaign.model.hot_spare_pull_threshold = threshold;
    const auto study = core::run_study(config);
    pulls.push_back(study.hot_spare_actions.size());
    // Repeat DBEs: events beyond the first on the same card.
    std::unordered_map<xid::CardId, int> per_card;
    std::size_t repeat_events = 0;
    for (const auto& e : study.events) {
      if (e.kind != xid::ErrorKind::kDoubleBitError) continue;
      if (++per_card[e.card] > 1) ++repeat_events;
    }
    repeats.push_back(repeat_events);
    std::printf("  threshold %llu : %zu pulls, %zu repeat DBE events\n",
                static_cast<unsigned long long>(threshold), pulls.back(), repeats.back());
  }
  checks.check("higher threshold -> fewer pulls", pulls[0] >= pulls[1] && pulls[1] >= pulls[2]);
  checks.check("aggressive pulling (threshold 1) bounds repeat DBEs", repeats[0] <= repeats[2]);
  checks.check("lenient thresholds let repeat DBEs through", repeats[1] >= 1);
}
