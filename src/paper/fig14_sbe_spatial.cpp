// Fig. 14: spatial distribution of SBEs -- all cards, top-10 removed,
// top-50 removed (Observation 10).
#include "paper/paper.hpp"

#include "analysis/sbe_study.hpp"

void titan::paper::fig14(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();

  const auto result = analysis::sbe_spatial_study(study.final_snapshot);
  const char* titles[3] = {
      "Fig. 14 (left) -- all GPU cards",
      "Fig. 14 (middle) -- top 10 SBE offenders removed",
      "Fig. 14 (right) -- top 50 SBE offenders removed",
  };
  for (std::size_t level = 0; level < 3; ++level) {
    print_header(titles[level]);
    print_block(render::heatmap(result.grids[level]));
    std::printf("  SBE total: %.0f   spatial skew (CoV): %.2f\n",
                result.grids[level].total(), result.skew[level]);
  }

  print_row("cards that ever saw an SBE", "< 1000 (< 5% of the system)",
            std::to_string(result.cards_with_any_sbe) + " (" +
                render::fmt_percent(result.fraction_of_fleet) + ")");
  print_row("skew: all -> top-50 removed", "highly skewed -> almost homogeneous",
            render::fmt_double(result.skew[0], 2) + " -> " +
                render::fmt_double(result.skew[2], 2));

  checks.check("< 5% of cards ever experienced an SBE",
               result.fraction_of_fleet < kSbeCardFractionAtMost);
  checks.check("hundreds of affected cards exist", result.cards_with_any_sbe >= 300);
  checks.check("removing top 10 reduces skew", result.skew[1] < result.skew[0]);
  checks.check("removing top 50 homogenizes (skew drops >= 2x)",
               result.skew[0] / std::max(1e-9, result.skew[2]) >=
                   kSkewDropFactorAtLeast);
}
