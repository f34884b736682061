// Fig. 12: spatial distribution of XID 13 under three views -- no
// filtering (top), 5-second roots (middle), filtered-out children
// (bottom) -- including the alternating-cabinet pattern caused by
// folded-torus cabling (Observation 7), plus a filter-window ablation.
#include "paper/paper.hpp"

#include "analysis/spatial.hpp"
#include "parse/filter.hpp"

namespace {

using titan::stats::Grid2D;

/// Column-parity contrast: |sum(even columns) - sum(odd columns)| / total.
/// The alternating-cabinet pattern shows up as a high contrast.
double parity_contrast(const Grid2D& grid) {
  double even = 0.0;
  double odd = 0.0;
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      (c % 2 == 0 ? even : odd) += grid.at(r, c);
    }
  }
  const double total = even + odd;
  return total > 0.0 ? std::abs(even - odd) / total : 0.0;
}

}  // namespace

void titan::paper::fig12(const PaperInputs& in, Checks& checks) {
  const auto& frame = in.frame();
  std::vector<parse::ParsedEvent> xid13;
  for (const auto row : frame.rows_of(xid::ErrorKind::kGraphicsEngineException)) {
    xid13.push_back(frame.row(row));
  }

  print_header("Fig. 12 (top) -- XID 13, no filtering (all node reports)");
  const auto grid_all =
      analysis::cabinet_heatmap(frame, xid::ErrorKind::kGraphicsEngineException);
  print_block(render::heatmap(grid_all));
  std::printf("  events: %.0f   even/odd column contrast: %.2f\n", grid_all.total(),
              parity_contrast(grid_all));

  const auto filtered = parse::filter_events(xid13, parse::FilterParams{5.0});

  print_header("Fig. 12 (middle) -- 5 s roots (one event per job)");
  const auto grid_roots =
      analysis::cabinet_heatmap(analysis::EventFrame::build(filtered.roots),
                                xid::ErrorKind::kGraphicsEngineException);
  print_block(render::heatmap(grid_roots));
  std::printf("  roots: %.0f   contrast: %.2f (uneven: debug jobs cluster)\n",
              grid_roots.total(), parity_contrast(grid_roots));

  print_header("Fig. 12 (bottom) -- children inside the 5 s window");
  const auto grid_children =
      analysis::cabinet_heatmap(analysis::EventFrame::build(filtered.children),
                                xid::ErrorKind::kGraphicsEngineException);
  print_block(render::heatmap(grid_children));
  std::printf("  children: %.0f   contrast: %.2f\n", grid_children.total(),
              parity_contrast(grid_children));

  print_header("Ablation -- root count vs filter window");
  std::vector<std::string> labels;
  std::vector<std::uint64_t> roots;
  for (const double w : {1.0, 5.0, 60.0, 300.0}) {
    const auto f = parse::filter_events(xid13, parse::FilterParams{w});
    labels.push_back(render::fmt_double(w, 0) + " s");
    roots.push_back(f.roots.size());
  }
  print_block(render::bar_chart(labels, roots));
  std::printf("  (5 s was 'a reasonable interval within which all nodes in the same job\n"
              "   reported the error' -- larger windows start merging distinct failures)\n");

  print_row("alternating-cabinet pattern (unfiltered contrast)",
            "distinct pattern where alternate cabinets have greater density",
            render::fmt_double(parity_contrast(grid_all), 2));

  checks.check("unfiltered view shows the parity pattern (contrast >= 0.15)",
               parity_contrast(grid_all) >= 0.15);
  checks.check("children dominate the raw stream (>= 5x roots)",
               grid_children.total() >= 5.0 * grid_roots.total());
  checks.check("children show the pattern too (contrast >= 0.15, paper's bottom panel)",
               parity_contrast(grid_children) >= 0.15);
  checks.check("window ablation is monotone",
               roots[0] >= roots[1] && roots[1] >= roots[2] && roots[2] >= roots[3]);
}
