// The paper reproduction: every table, figure, observation, extension
// and ablation as one named entry.
//
// Each entry regenerates one paper artifact from the full simulated
// campaign (fixed seed), prints the series/heatmap, prints "paper: /
// measured:" comparison rows, and evaluates its shape checks.  Absolute
// counts are not expected to match (the substrate is a simulator); the
// *shape* criteria are.  `bench_paper` prints the entries and
// `paper_shapes_test` gates every check, so both run the same function.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/event_frame.hpp"
#include "analysis/utilization.hpp"
#include "core/facility.hpp"
#include "paper/expectations.hpp"
#include "render/ascii.hpp"
#include "study/context.hpp"
#include "topology/machine.hpp"

namespace titan::paper {

/// What every entry reads: the default 21-month study, loaded through
/// `study::SimulatedSource` on first use and shared by every entry run
/// against this object.  Entries that need no campaign (Tables 1-2,
/// Fig. 1) never trigger the simulation.  Not thread-safe: entries run
/// one after another.
class PaperInputs {
 public:
  /// The loaded context; the first call simulates (one stderr line).
  [[nodiscard]] const study::StudyContext& context() const;
  /// Simulator ground truth: config, trace, deadlines, snapshot, strikes.
  [[nodiscard]] const core::StudyDataset& study() const { return *context().truth; }
  /// The ledger-joined console-view frame.
  [[nodiscard]] const analysis::EventFrame& frame() const { return context().frame; }

  /// Figs. 16-20: job metrics against per-job SBE counts over the per-job
  /// nvidia-smi framework's window.  The paper ran it "for the period of
  /// over a month"; we use the final 45 days.
  [[nodiscard]] const analysis::UtilizationStudy& utilization() const;

 private:
  mutable std::optional<study::StudyContext> context_;
  mutable std::optional<analysis::UtilizationStudy> utilization_;
};

/// One evaluated shape check.
struct CheckRecord {
  std::string id;    ///< the entry that ran it
  std::string name;  ///< the criterion, as printed
  bool ok = false;
};

/// The checks one entry evaluates: each prints its verdict line and is
/// recorded under the entry's id.
class Checks {
 public:
  explicit Checks(std::string_view id) : id_{id} {}

  /// Print "  [PASS] name" / "  [FAIL] name" and record the verdict.
  void check(const std::string& name, bool ok);

  [[nodiscard]] const std::vector<CheckRecord>& records() const noexcept { return records_; }
  [[nodiscard]] bool passed() const { return std::ranges::all_of(records_, &CheckRecord::ok); }

 private:
  std::string id_;
  std::vector<CheckRecord> records_;
};

/// One paper artifact: `fn` prints it and evaluates its checks.
using EntryFn = void(const PaperInputs& in, Checks& checks);
struct Entry {
  std::string_view id;
  EntryFn* fn;
};

/// Every entry, in paper order: table1, table2, fig01..fig21, obs2, the
/// four extensions, ablation.
[[nodiscard]] std::span<const Entry> entries();
/// The entry named `id`, or nullptr.
[[nodiscard]] const Entry* find_entry(std::string_view id);

/// The entries themselves, one per artifact, in the order entries() lists them.
EntryFn table1, table2, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10;
EntryFn fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19, fig20, fig21, obs2;
EntryFn ext_checkpoint, ext_prediction, ext_temporal_locality, ext_interruption, ablation;

// -- Printing, shared with the other benches ------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_block(const std::string& text) { std::fputs(text.c_str(), stdout); }

inline void print_row(const std::string& metric, const std::string& paper,
                      const std::string& measured) {
  print_block(render::comparison(metric, paper, measured));
}

/// Bar chart of one count per cage position, bottom to top.
inline void print_cages(const std::array<std::uint64_t, topology::kCagesPerCabinet>& counts) {
  static const std::array<std::string, topology::kCagesPerCabinet> labels{
      "cage 0 (bottom)", "cage 1", "cage 2 (top)"};
  print_block(render::bar_chart(labels, counts));
}

/// Shape verdict line: one PASS/FAIL per acceptance criterion, so
/// EXPERIMENTS.md can cite them directly.
inline bool print_verdict(const std::string& criterion, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", criterion.c_str());
  return ok;
}

}  // namespace titan::paper
