// Fig. 3: DBE spatial distribution, cage distribution (all events vs
// distinct cards), and per-structure breakdown (Observation 3).
#include "paper/paper.hpp"

#include "analysis/spatial.hpp"

void titan::paper::fig03(const PaperInputs& in, Checks& checks) {
  const auto& frame = in.frame();

  print_header("Fig. 3(a) -- Spatial distribution of DBEs (8 rows x 25 columns)");
  const auto grid = analysis::cabinet_heatmap(frame, xid::ErrorKind::kDoubleBitError);
  print_block(render::heatmap(grid));
  std::printf("  total: %.0f DBEs; spatial CoV %.2f (rare events: uneven is expected)\n",
              grid.total(), grid.coefficient_of_variation());

  print_header("Fig. 3(b) -- DBEs by cage position");
  const auto cages = analysis::cage_distribution(frame, xid::ErrorKind::kDoubleBitError);
  print_cages(cages.event_counts);
  std::printf("  distinct cards per cage:\n");
  print_cages(cages.distinct_cards);
  print_row("top/bottom cage ratio", "> 1 (upper cages hotter)",
            render::fmt_double(cages.top_to_bottom_ratio(), 2));

  print_header("Fig. 3(c) -- DBE breakdown by memory structure");
  const auto breakdown =
      analysis::structure_breakdown(frame, xid::ErrorKind::kDoubleBitError);
  const double device = breakdown.share(xid::MemoryStructure::kDeviceMemory);
  const double regfile = breakdown.share(xid::MemoryStructure::kRegisterFile);
  print_row("device memory share", render::fmt_percent(0.86), render::fmt_percent(device));
  print_row("register file share", render::fmt_percent(0.14), render::fmt_percent(regfile));

  checks.check("upper cages see more DBEs than lower (ratio >= 1.15)",
               cages.top_to_bottom_ratio() >= kCageRatioAtLeast);
  checks.check("distinct-card trend matches (top >= bottom)",
               cages.distinct_cards[2] >= cages.distinct_cards[0]);
  checks.check("device memory dominates (80-92%)", device > 0.80 && device < 0.92);
  checks.check("remainder lands in the register file", std::abs(device + regfile - 1.0) < 1e-9);
}
