// Fig. 5: spatial distribution of Off-the-bus errors; thermal sensitivity
// and the all-vs-unique-card near-equality (OTBs do not repeat per card).
#include "paper/paper.hpp"

#include "analysis/spatial.hpp"

void titan::paper::fig05(const PaperInputs& in, Checks& checks) {
  const auto& frame = in.frame();

  print_header("Fig. 5 -- Spatial distribution of Off the bus errors");
  const auto grid = analysis::cabinet_heatmap(frame, xid::ErrorKind::kOffTheBus);
  print_block(render::heatmap(grid));
  std::printf("  total: %.0f OTB events, fairly distributed across the machine\n",
              grid.total());

  print_header("Fig. 5 (cage view) -- OTB by cage position");
  const auto cages =
      analysis::cage_distribution(frame, xid::ErrorKind::kOffTheBus);
  print_cages(cages.event_counts);

  std::uint64_t all_events = cages.total_events();
  std::uint64_t unique_cards =
      cages.distinct_cards[0] + cages.distinct_cards[1] + cages.distinct_cards[2];
  print_row("all occurrences vs unique cards", "small difference (no repeats per card)",
            std::to_string(all_events) + " vs " + std::to_string(unique_cards));
  print_row("top/bottom cage ratio", "strong thermal sensitivity (> 1)",
            render::fmt_double(cages.top_to_bottom_ratio(), 2));

  checks.check("upper cages see more OTBs (ratio >= 1.15)",
               cages.top_to_bottom_ratio() >= kCageRatioAtLeast);
  checks.check("all ~= unique (repeat rate < 10%)", all_events - unique_cards <= all_events / 10);
  checks.check("errors spread over many cabinets (> 30 nonzero cells)",
               std::ranges::count_if(grid.data(), [](double v) { return v > 0.0; }) > 30);
}
