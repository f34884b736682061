// Fig. 15: cage distribution of SBE counts (a) and distinct affected
// cards (b), across offender-exclusion levels (Observation 10).
#include "paper/paper.hpp"

#include <algorithm>

#include "analysis/sbe_study.hpp"

void titan::paper::fig15(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto result = analysis::sbe_cage_study(study.final_snapshot);

  const char* level_names[3] = {"all cards", "top 10 removed", "top 50 removed"};

  print_header("Fig. 15(a) -- SBE counts per cage");
  for (std::size_t level = 0; level < 3; ++level) {
    std::printf("  %s:\n", level_names[level]);
    print_cages(result.counts[level]);
  }

  print_header("Fig. 15(b) -- distinct SBE-affected cards per cage");
  for (std::size_t level = 0; level < 3; ++level) {
    std::printf("  %s:\n", level_names[level]);
    print_cages(result.distinct_cards[level]);
  }

  const auto spread = [](const std::array<std::uint64_t, 3>& v) {
    const auto mx = std::max({v[0], v[1], v[2]});
    const auto mn = std::max<std::uint64_t>(1, std::min({v[0], v[1], v[2]}));
    return static_cast<double>(mx) / static_cast<double>(mn);
  };
  print_row("count spread across cages, all cards",
            "dominated by where offenders happen to sit",
            render::fmt_double(spread(result.counts[0]), 2) + "x");
  print_row("count spread, top 50 removed", "fairly homogeneous",
            render::fmt_double(spread(result.counts[2]), 2) + "x");
  print_row("distinct-card spread (all levels)", "equal across cages",
            render::fmt_double(spread(result.distinct_cards[0]), 2) + "x / " +
                render::fmt_double(spread(result.distinct_cards[1]), 2) + "x / " +
                render::fmt_double(spread(result.distinct_cards[2]), 2) + "x");

  checks.check("removing offenders flattens the count distribution",
               spread(result.counts[2]) < spread(result.counts[0]));
  checks.check("top-50-removed counts are near homogeneous (spread < 2x)",
               spread(result.counts[2]) < 2.0);
  checks.check("distinct cards are cage-uniform at every level (spread < 1.4x)",
               spread(result.distinct_cards[0]) < 1.4 &&
                   spread(result.distinct_cards[1]) < 1.4 &&
                   spread(result.distinct_cards[2]) < 1.4);
}
