// Dataset load-path benchmark: text artifacts vs the TDF binary container.
//
// Writes the same simulated campaign as a text dataset and as a binary
// dataset, then times DatasetSource::load (parse vs mmap+decode) and the
// full registry sweep over each.  The acceptance criterion from the
// ROADMAP's binary-format item: binary load >= 5x faster than text (the
// median ratio over alternating text/binary load pairs), with
// byte-identical StudyReports from both paths.
//
//   ./build/bench/bench_tdf_load [--quick] [--reps N] [--json PATH] [--dir PATH]
//
// --json writes the machine-readable record (the BENCH_dataset.json
// trajectory; see scripts/check.sh --bench-json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "paper/paper.hpp"
#include "study/io.hpp"
#include "study/json.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;

/// Milliseconds of one call, measured with a steady clock.
template <typename Fn>
double time_ms(const Fn& fn) {
  const auto begin = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Load times of `reps` alternating (a, b) pairs: a slow stretch of a
/// shared machine then slows both loads of a pair, not all of one format.
struct PairedTimes {
  double best_a_ms = 0.0;   ///< best of the a loads
  double best_b_ms = 0.0;   ///< best of the b loads
  double median_ratio = 0.0;  ///< median over pairs of a_ms / b_ms
};

template <typename FnA, typename FnB>
PairedTimes paired_times(int reps, const FnA& a, const FnB& b) {
  PairedTimes out;
  std::vector<double> ratios;
  for (int i = 0; i < reps; ++i) {
    const double a_ms = time_ms(a);
    const double b_ms = time_ms(b);
    out.best_a_ms = i == 0 ? a_ms : std::min(out.best_a_ms, a_ms);
    out.best_b_ms = i == 0 ? b_ms : std::min(out.best_b_ms, b_ms);
    ratios.push_back(b_ms > 0.0 ? a_ms / b_ms : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  out.median_ratio = ratios.size() % 2 == 1 ? ratios[mid] : (ratios[mid - 1] + ratios[mid]) / 2.0;
  return out;
}

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 5;
  std::string json_path;
  fs::path root = fs::temp_directory_path() / "titanrel_bench_tdf";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--dir" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_tdf_load [--quick] [--reps N] [--json PATH] [--dir PATH]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  paper::print_header("Dataset load path: text artifacts vs TDF binary container");

  const auto config = quick ? core::quick_config(29) : core::default_config();
  std::fprintf(stderr, "[titanrel] simulating fixture campaign (seed %llu%s)...\n",
               static_cast<unsigned long long>(config.seed), quick ? ", quick" : "");
  const study::SimulatedSource simulated{config};
  const auto context = simulated.load();

  const fs::path text_dir = root / "text";
  const fs::path binary_dir = root / "binary";
  study::write_dataset(context, text_dir, study::DatasetFormat::kText);
  study::write_dataset(context, binary_dir, study::DatasetFormat::kBinary);

  const auto text_bytes = dir_bytes(text_dir);
  const auto binary_bytes = dir_bytes(binary_dir);
  std::printf("fixture       : %zu events, %zu jobs, %zu smi blocks\n", context.events.size(),
              context.load_stats.job_lines, context.load_stats.smi_blocks);
  std::printf("text dataset  : %llu bytes\n", static_cast<unsigned long long>(text_bytes));
  std::printf("binary dataset: %llu bytes (%.2fx smaller)\n",
              static_cast<unsigned long long>(binary_bytes),
              binary_bytes == 0 ? 0.0
                                : static_cast<double>(text_bytes) / static_cast<double>(binary_bytes));

  const study::DatasetSource text_source{text_dir};
  const study::DatasetSource binary_source{binary_dir};

  // Load timings: N text/binary pairs of full loads.  The gate is the
  // median per-pair speedup; the best load of each format is reported.
  const PairedTimes loads = paired_times(
      reps, [&] { (void)text_source.load(); }, [&] { (void)binary_source.load(); });
  const double text_load_ms = loads.best_a_ms;
  const double binary_load_ms = loads.best_b_ms;
  const double speedup = loads.median_ratio;
  std::printf("\nload (%d text/binary pairs)\n", reps);
  std::printf("  text        : %10.2f ms (best)\n", text_load_ms);
  std::printf("  binary      : %10.2f ms (best)\n", binary_load_ms);
  std::printf("  speedup     : %10.2fx (median pair)\n", speedup);

  // Full registry sweep over each loaded context, plus report equivalence.
  const auto& registry = study::AnalysisRegistry::standard();
  const auto text_context = text_source.load();
  const auto binary_context = binary_source.load();
  study::StudyReport text_report;
  study::StudyReport binary_report;
  const double text_sweep_ms = time_ms([&] { text_report = registry.run_all(text_context); });
  const double binary_sweep_ms =
      time_ms([&] { binary_report = registry.run_all(binary_context); });
  std::printf("\nfull sweep (load excluded)\n");
  std::printf("  text        : %10.2f ms\n", text_sweep_ms);
  std::printf("  binary      : %10.2f ms\n", binary_sweep_ms);

  std::printf("\n");
  bool ok = true;
  ok &= paper::print_verdict("binary load >= 5x faster than text", speedup >= 5.0);
  ok &= paper::print_verdict("text and binary reports byte-identical (text)",
                             text_report.text() == binary_report.text());
  ok &= paper::print_verdict("text and binary reports byte-identical (json)",
                             text_report.json() == binary_report.json());

  if (!json_path.empty()) {
    auto doc = study::JsonValue::object();
    doc.set("bench", "tdf_load");
    doc.set("fixture", study::JsonValue::object()
                           .set("config", quick ? "quick" : "default")
                           .set("seed", config.seed)
                           .set("events", context.events.size())
                           .set("jobs", context.load_stats.job_lines)
                           .set("smi_blocks", context.load_stats.smi_blocks)
                           .set("text_bytes", static_cast<std::uint64_t>(text_bytes))
                           .set("binary_bytes", static_cast<std::uint64_t>(binary_bytes)));
    doc.set("reps", reps);
    doc.set("load_ms", study::JsonValue::object()
                           .set("text", text_load_ms)
                           .set("binary", binary_load_ms)
                           .set("speedup", speedup));
    doc.set("sweep_ms", study::JsonValue::object()
                            .set("text", text_sweep_ms)
                            .set("binary", binary_sweep_ms));
    doc.set("checks", study::JsonValue::object()
                          .set("speedup_5x", speedup >= 5.0)
                          .set("reports_identical",
                               text_report.text() == binary_report.text() &&
                                   text_report.json() == binary_report.json()));
    study::write_text(json_path, doc.dump() + "\n");
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  fs::remove_all(root);
  return ok ? 0 : 1;
}
