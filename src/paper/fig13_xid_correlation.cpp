// Fig. 13: temporal re-occurrence relationship between XID kinds within a
// 300 s window -- with and without same-type pairs (Observation 9) --
// plus a window ablation.
#include "paper/paper.hpp"

#include <algorithm>

#include "analysis/xid_matrix.hpp"

void titan::paper::fig13(const PaperInputs& in, Checks& checks) {
  using xid::ErrorKind;
  const auto& frame = in.frame();
  const auto kinds = analysis::fig13_kinds();

  print_header("Fig. 13 (top) -- P(following within 300 s), same-type included");
  const auto with_same = analysis::follow_matrix(frame, kinds, 300.0, true);
  print_block(render::labeled_heatmap(with_same.fractions, with_same.labels(), with_same.labels()));

  print_header("Fig. 13 (bottom) -- same-type pairs excluded");
  const auto no_same = analysis::follow_matrix(frame, kinds, 300.0, false);
  print_block(render::labeled_heatmap(no_same.fractions, no_same.labels(), no_same.labels()));

  print_row("DBE (48) followed by XID 45", "likely",
            render::fmt_percent(no_same.at(ErrorKind::kDoubleBitError,
                                           ErrorKind::kPreemptiveCleanup)));
  print_row("DBE (48) followed by XID 63", "likely",
            render::fmt_percent(no_same.at(ErrorKind::kDoubleBitError,
                                           ErrorKind::kPageRetirement)));
  print_row("XID 13 followed by XID 43", "likely",
            render::fmt_percent(no_same.at(ErrorKind::kGraphicsEngineException,
                                           ErrorKind::kGpuStoppedProcessing)));
  print_row("XID 13 diagonal (same-type repeats)", "high (job-wide fan-out)",
            render::fmt_percent(with_same.at(ErrorKind::kGraphicsEngineException,
                                             ErrorKind::kGraphicsEngineException)));

  const auto isolated = analysis::isolated_kinds(with_same, 0.02);
  std::string isolated_names;
  for (const auto k : isolated) {
    if (!isolated_names.empty()) isolated_names += ", ";
    isolated_names += xid::token(k);
  }
  print_row("isolated kinds (empty diagonal)", "OTB, XID 38, XID 48, XID 63", isolated_names);

  print_header("Ablation -- DBE->45 following probability vs window");
  for (const double w : {1.0, 5.0, 60.0, 300.0}) {
    const auto m = analysis::follow_matrix(frame, kinds, w, false);
    std::printf("  window %5.0f s: %s\n", w,
                render::fmt_percent(
                    m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup))
                    .c_str());
  }

  const auto contains = [&](ErrorKind k) {
    return std::find(isolated.begin(), isolated.end(), k) != isolated.end();
  };
  checks.check("DBE -> 45 within 300 s is likely (>= 30%)",
               no_same.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup) >=
                   0.30);
  checks.check("13 -> 43 within 300 s is likely (>= 25%)",
               no_same.at(ErrorKind::kGraphicsEngineException,
                          ErrorKind::kGpuStoppedProcessing) >= 0.25);
  checks.check("XID 13 diagonal is high (>= 50%)",
               with_same.at(ErrorKind::kGraphicsEngineException,
                            ErrorKind::kGraphicsEngineException) >= 0.50);
  checks.check("OTB / 38 / 48 / 63 are isolated",
               contains(ErrorKind::kOffTheBus) && contains(ErrorKind::kDriverFirmware) &&
                   contains(ErrorKind::kDoubleBitError) &&
                   contains(ErrorKind::kPageRetirement));
}
