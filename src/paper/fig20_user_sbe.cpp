// Fig. 20: GPU core hours vs SBEs aggregated by user (Observation 13:
// Spearman ~0.80, higher than the per-job analysis; improves when top-10
// offender cards are excluded).
#include "paper/paper.hpp"

void titan::paper::fig20(const PaperInputs& in, Checks& checks) {
  const auto& study = in.utilization();

  print_header("Fig. 20 -- per-user GPU core hours vs single bit errors");
  std::printf("  users with window jobs: %zu (all) / %zu (offenders excluded)\n",
              study.users_all, study.users_excl);
  print_row("Spearman over users (all jobs)", "0.80",
            render::fmt_double(study.user_spearman_all.coefficient, 2) + " (p=" +
                render::fmt_double(study.user_spearman_all.p_value, 4) + ")");
  print_row("Spearman over users (top-10 offenders excluded)",
            "improves over the all-jobs value",
            render::fmt_double(study.user_spearman_excl.coefficient, 2));

  double core_job_level = 0.0;
  for (const auto& mc : study.metrics) {
    if (mc.metric == analysis::JobMetric::kGpuCoreHours) {
      core_job_level = mc.spearman_all.coefficient;
    }
  }
  print_row("user-level vs job-level Spearman", "user-level is higher",
            render::fmt_double(study.user_spearman_all.coefficient, 2) + " vs " +
                render::fmt_double(core_job_level, 2));

  checks.check("user-level Spearman is strong (>= 0.55)",
               study.user_spearman_all.coefficient >= 0.55);
  checks.check("user aggregation beats the job-level correlation",
               study.user_spearman_all.coefficient > core_job_level);
  checks.check("correlation is significant", study.user_spearman_all.significant());
}
