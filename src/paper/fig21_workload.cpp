// Fig. 21: GPU resource consumption characteristics (Observation 14) --
// four panels plus the prose shape claims.
#include "paper/paper.hpp"

#include "analysis/workload_char.hpp"

namespace {

void print_profile(const titan::analysis::Profile& profile, const char* key_name,
                   const char* target_name) {
  std::printf("  bin | %14s | %14s\n", key_name, target_name);
  for (std::size_t b = 0; b < profile.key_mean.size(); ++b) {
    std::printf("  %3zu | %14.3f | %14.3f\n", b + 1, profile.key_mean[b],
                profile.target_mean[b]);
  }
}

}  // namespace

void titan::paper::fig21(const PaperInputs& in, Checks& checks) {
  using analysis::JobField;
  const auto& trace = in.study().trace;

  print_header("Fig. 21(a) -- sorted by GPU core hours: memory consumption");
  print_profile(analysis::job_profile(trace, JobField::kGpuCoreHours, JobField::kMaxMemory, 12),
                "core-hours/mean", "max-mem/mean");

  print_header("Fig. 21(b) -- sorted by GPU core hours: node count");
  print_profile(analysis::job_profile(trace, JobField::kGpuCoreHours, JobField::kNodeCount, 12),
                "core-hours/mean", "nodes/mean");

  print_header("Fig. 21(c) -- sorted by node count: wall-clock time");
  print_profile(analysis::job_profile(trace, JobField::kNodeCount, JobField::kWallHours, 12),
                "nodes/mean", "wall-hours/mean");

  print_header("Fig. 21(d) -- sorted by node count: max memory");
  print_profile(analysis::job_profile(trace, JobField::kNodeCount, JobField::kMaxMemory, 12),
                "nodes/mean", "max-mem/mean");

  const auto shape = analysis::workload_shape(trace);
  print_row("core hours vs node count", "larger jobs use more core hours",
            "Spearman " + render::fmt_double(shape.corehours_vs_nodes.coefficient, 2));
  print_row("node-count percentile of top-1% max-memory jobs",
            "relatively smaller node count",
            render::fmt_percent(shape.top_memory_jobs_node_percentile));
  print_row("core-hour percentile of top-1% total-memory jobs",
            "memory hogs are not the core-hour hogs",
            render::fmt_percent(shape.top_memory_jobs_corehour_percentile));
  print_row("max wall (small jobs) / max wall (large jobs)",
            "some small jobs run longest (ratio near or above 1)",
            render::fmt_double(shape.small_vs_large_max_wall_ratio, 2));

  checks.check("Fig. 21(b): core hours track node count (Spearman >= 0.5)",
               shape.corehours_vs_nodes.coefficient >= 0.5);
  checks.check("Fig. 21(d): memory hogs run at modest scale (percentile <= 85%)",
               shape.top_memory_jobs_node_percentile <= 0.85);
  checks.check("Fig. 21(c): small jobs can out-run large ones (ratio >= 0.8)",
               shape.small_vs_large_max_wall_ratio >= 0.8);
  checks.check("Fig. 21(a): top total-memory jobs are below the top core-hour tier",
               shape.top_memory_jobs_corehour_percentile <= 0.9);
}
