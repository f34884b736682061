// Fig. 8: occurrence of ECC page retirement following a DBE.
//
// Paper: 18 retirements within 10 minutes of a DBE (the driver's fast
// path), 1 between 10 minutes and 6 hours, 18 beyond (the two-SBE
// same-page path), and 17 successive-DBE pairs with no retirement logged
// between them.
#include "paper/paper.hpp"

#include "analysis/retirement_study.hpp"

void titan::paper::fig08(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();

  print_header("Fig. 8 -- ECC page retirement delay since the last DBE");
  const auto result = analysis::retirement_delay_study(
      frame, study.config.campaign.timeline.new_driver);

  const std::vector<std::string> labels{"<= 10 min", "10 min .. 6 h", "> 6 h"};
  const std::vector<std::uint64_t> counts{result.within_10min, result.min10_to_6h,
                                          result.beyond_6h};
  print_block(render::bar_chart(labels, counts));

  print_row("retirements within 10 min of a DBE",
            std::to_string(kRetirementsWithin10Min),
            std::to_string(result.within_10min));
  print_row("retirements in (10 min, 6 h]",
            std::to_string(kRetirements10MinTo6h),
            std::to_string(result.min10_to_6h));
  print_row("retirements beyond 6 h (two-SBE path)",
            std::to_string(kRetirementsBeyond6h),
            std::to_string(result.beyond_6h));
  print_row("successive DBE pairs w/o retirement between",
            std::to_string(kDbePairsWithoutRetirement),
            std::to_string(result.dbe_pairs_without_retirement));

  checks.check("bimodal shape: fast bucket and slow bucket both populated",
               result.within_10min >= 5 && result.beyond_6h >= 5);
  checks.check("the middle bucket is nearly empty (fast/slow separation)",
               result.min10_to_6h <= result.within_10min / 2 + 2);
  checks.check("many DBE pairs lack a logged retirement (the paper's puzzle)",
               result.dbe_pairs_without_retirement >= 5);
}
