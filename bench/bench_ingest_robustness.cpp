// Ingestion robustness bench: the differential harness from the issue --
// write a dataset, corrupt it with every operator (alone, then stacked),
// and run the full AnalysisRegistry sweep on clean vs. corrupted copies.
// Prints per-operator salvage timings and PASS/FAIL verdicts: salvage
// always yields a context plus a non-empty triage report, strict always
// rejects with a named file/line/code, clean-input reports carry no
// ingest section, and salvage reports are byte-identical across
// titan::par widths.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/corrupt.hpp"
#include "paper/paper.hpp"
#include "par/pool.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main() {
  using namespace titan;
  constexpr std::uint64_t kSeed = 29;

  paper::print_header("Ingest robustness: clean vs. corrupted dataset sweeps");

  const auto root = fs::temp_directory_path() / "titanrel_bench_ingest";
  fs::remove_all(root);
  const auto clean_dir = root / "clean";
  {
    const auto truth = study::SimulatedSource{core::quick_config(kSeed)}.load();
    study::write_dataset(truth, clean_dir);
  }

  const auto& registry = study::AnalysisRegistry::standard();
  bool ok = true;

  auto start = std::chrono::steady_clock::now();
  const auto clean_context = study::DatasetSource{clean_dir}.load();
  const auto clean_report = registry.run_all(clean_context);
  std::printf("  clean strict load + sweep: %.2f s (%zu events, %zu analyses)\n",
              seconds_since(start), clean_context.events.size(),
              clean_report.results.size());
  ok &= paper::print_verdict("clean strict load carries no ingest section",
                             !clean_report.ingest.has_value() &&
                                 clean_report.text().find("-- ingest") == std::string::npos);

  paper::print_header("Per-operator salvage sweep (text operators)");
  std::printf("  %-20s %9s %9s %9s  %s\n", "operator", "load s", "sweep s", "findings",
              "strict");
  for (const auto op : ingest::all_corruption_ops()) {
    if (ingest::op_targets_tdf(op)) continue;  // binary sweep below
    const auto dir = root / std::string{ingest::op_name(op)};
    ingest::CorruptionSpec spec;
    spec.ops = {op};
    spec.seed = kSeed;
    const auto summary = ingest::corrupt_dataset(clean_dir, dir, spec);

    start = std::chrono::steady_clock::now();
    study::StudyContext context;
    bool salvaged = false;
    try {
      context = study::DatasetSource{dir, ingest::IngestPolicy::kSalvage}.load();
      salvaged = context.ingest_report.has_value() && context.ingest_report->total() > 0;
    } catch (const std::exception& error) {
      std::printf("  %-20s salvage load threw: %s\n",
                  std::string{ingest::op_name(op)}.c_str(), error.what());
    }
    const double load_s = seconds_since(start);

    double sweep_s = 0.0;
    bool swept = false;
    if (salvaged) {
      start = std::chrono::steady_clock::now();
      const auto report = registry.run_all(context);
      sweep_s = seconds_since(start);
      swept = report.ingest.has_value() && !report.results.empty();
    }

    bool strict_rejected = false;
    std::string strict_code = "none";
    try {
      (void)study::DatasetSource{dir}.load();
    } catch (const ingest::IngestError& error) {
      strict_rejected = !error.file().empty();
      strict_code = std::string{ingest::code_name(error.code())};
    }

    std::printf("  %-20s %9.3f %9.3f %9zu  %s\n",
                std::string{ingest::op_name(op)}.c_str(), load_s, sweep_s,
                salvaged ? context.ingest_report->total() : 0, strict_code.c_str());
    ok &= paper::print_verdict(std::string{ingest::op_name(op)} +
                                   ": salvage context + non-empty report + full sweep",
                               salvaged && swept && summary.total_mutations() > 0);
    ok &= paper::print_verdict(std::string{ingest::op_name(op)} +
                                   ": strict rejects with named file and code",
                               strict_rejected);
  }

  paper::print_header("Per-operator TDF sweep (binary container)");
  const auto binary_dir = root / "clean_binary";
  {
    const auto truth = study::SimulatedSource{core::quick_config(kSeed)}.load();
    study::write_dataset(truth, binary_dir, study::DatasetFormat::kBinary);
  }
  std::printf("  %-20s %9s  %s\n", "operator", "load s", "outcome");
  for (const auto op : ingest::all_corruption_ops()) {
    if (!ingest::op_targets_tdf(op)) continue;
    const auto dir = root / std::string{ingest::op_name(op)};
    ingest::CorruptionSpec spec;
    spec.ops = {op};
    spec.seed = kSeed;
    const auto summary = ingest::corrupt_dataset(binary_dir, dir, spec);

    // Salvage: container/required-segment damage throws a named TDF code;
    // optional-segment damage quarantines with a named finding.  Either
    // way the damage is never silent.
    start = std::chrono::steady_clock::now();
    bool named = false;
    std::string outcome;
    try {
      const auto context = study::DatasetSource{dir, ingest::IngestPolicy::kSalvage}.load();
      if (context.ingest_report.has_value()) {
        for (const auto& diag : context.ingest_report->diagnostics()) {
          if (std::string_view{ingest::code_name(diag.code)}.substr(0, 6) == "E_TDF_") {
            named = true;
            outcome = std::string{ingest::code_name(diag.code)} + " (quarantined)";
          }
        }
      }
    } catch (const ingest::IngestError& error) {
      named = std::string_view{ingest::code_name(error.code())}.substr(0, 6) == "E_TDF_";
      outcome = std::string{ingest::code_name(error.code())} + " (fatal)";
    }
    const double load_s = seconds_since(start);

    bool strict_named = false;
    try {
      (void)study::DatasetSource{dir}.load();
    } catch (const ingest::IngestError& error) {
      strict_named =
          std::string_view{ingest::code_name(error.code())}.substr(0, 6) == "E_TDF_";
    }

    std::printf("  %-20s %9.3f  %s\n", std::string{ingest::op_name(op)}.c_str(), load_s,
                outcome.c_str());
    ok &= paper::print_verdict(std::string{ingest::op_name(op)} +
                                   ": salvage names the TDF damage (never silent)",
                               named && summary.total_mutations() > 0);
    ok &= paper::print_verdict(
        std::string{ingest::op_name(op)} + ": strict rejects with a TDF code", strict_named);
  }

  paper::print_header("Stacked operators, thread-width determinism");
  const auto all = ingest::all_corruption_ops();
  ingest::CorruptionSpec stacked;
  stacked.ops.assign(all.begin(), all.end());
  stacked.seed = kSeed;
  const auto stacked_dir = root / "stacked";
  (void)ingest::corrupt_dataset(clean_dir, stacked_dir, stacked);

  start = std::chrono::steady_clock::now();
  const auto stacked_context =
      study::DatasetSource{stacked_dir, ingest::IngestPolicy::kSalvage}.load();
  std::printf("  stacked salvage load: %.3f s, %zu findings (%zu dup removed, %zu resorted, "
              "%zu quarantined)\n",
              seconds_since(start), stacked_context.ingest_report->total(),
              stacked_context.ingest_report->duplicates_removed,
              stacked_context.ingest_report->events_resorted,
              stacked_context.ingest_report->lines_quarantined);

  const auto saved_threads = par::thread_count();
  par::set_threads(1);
  const auto narrow = registry.run_all(stacked_context);
  par::set_threads(4);
  const auto wide = registry.run_all(stacked_context);
  par::set_threads(saved_threads);
  ok &= paper::print_verdict("stacked salvage sweep byte-identical at 1 vs 4 threads",
                             narrow.text() == wide.text() && narrow.json() == wide.json());
  ok &= paper::print_verdict("stacked report carries the ingest triage section",
                             narrow.text().find("-- ingest") != std::string::npos);

  paper::print_header("Triage summary (stacked)");
  paper::print_block(stacked_context.ingest_report->summary_text());

  fs::remove_all(root);
  return ok ? 0 : 1;
}
