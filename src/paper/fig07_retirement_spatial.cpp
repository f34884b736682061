// Fig. 7: spatial and cage distribution of ECC page retirement errors.
#include "paper/paper.hpp"

#include "analysis/spatial.hpp"

void titan::paper::fig07(const PaperInputs& in, Checks& checks) {
  const auto& frame = in.frame();

  print_header("Fig. 7 -- Spatial distribution of ECC page retirement errors");
  const auto grid = analysis::cabinet_heatmap(frame, xid::ErrorKind::kPageRetirement);
  print_block(render::heatmap(grid));
  std::printf("  total: %.0f retirement events; non-uniform (rare-event statistics)\n",
              grid.total());

  print_header("Fig. 7 (cage view) -- retirements by cage position");
  const auto cages = analysis::cage_distribution(frame, xid::ErrorKind::kPageRetirement);
  print_cages(cages.event_counts);
  print_row("cage trend", "cards in upper cages slightly more likely",
            "top/bottom = " + render::fmt_double(cages.top_to_bottom_ratio(), 2));

  checks.check("retirements exist", grid.total() > 0);
  checks.check("upper cages at least match lower cages",
               cages.event_counts[2] + cages.event_counts[1] >= cages.event_counts[0]);
  checks.check("spatial distribution non-uniform (CoV > 1)", grid.coefficient_of_variation() > 1.0);
}
