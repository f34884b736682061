// The benchmark's three workloads: one operation each, run through
// titanrel's public API, plus the fixtures and reference outputs every
// timed operation is checked against.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/facility.hpp"
#include "study/context.hpp"
#include "study/report.hpp"

namespace perfbench {

enum class Workload { kSimulateStudy, kGenerateSharded, kQueryDataset };

/// Shard count of the datasets generate-sharded writes: the 16 of the
/// repository's documented sharded workflow (`generate_dataset ...
/// --shards 16`) and of bench_campaign_scale's default.
inline constexpr std::size_t kShards = 16;


/// Parses a workload name; throws std::invalid_argument on an unknown one.
[[nodiscard]] Workload parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

/// A rendered report: what an analyst reads (text) and what tools read
/// (json).  Equality is byte equality of both.
struct Rendered {
  std::string text;
  std::string json;
  friend bool operator==(const Rendered&, const Rendered&) = default;
};
[[nodiscard]] Rendered render(const titan::study::StudyReport& report);

/// The analyses a workload runs on a loaded context: everything
/// available, or the monthly-count query alone for query-dataset.
[[nodiscard]] std::vector<std::string> selection(Workload w,
                                                 const titan::study::StudyContext& context);

/// Files of one run's working directory.
struct Fixture {
  std::filesystem::path dir;
  [[nodiscard]] std::filesystem::path data() const { return dir / "data"; }
  [[nodiscard]] std::filesystem::path out(std::size_t op) const {
    return dir / "out" / std::to_string(op);
  }
  [[nodiscard]] std::filesystem::path ref_text() const { return dir / "reference.txt"; }
  [[nodiscard]] std::filesystem::path ref_json() const { return dir / "reference.json"; }
};

/// What one operation produced, for its output check.
struct OpOutput {
  double seconds = 0.0;         ///< wall time of the operation alone
  Rendered report;              ///< empty for generate-sharded
  std::size_t events = 0;       ///< events the op produced or read
  std::uint64_t data_bytes = 0; ///< bytes of those events' on-disk (or log) form
};

/// Build the workload's fixture and reference outputs in `fixture.dir`
/// (simulate-study's reference comes from its serial warm-up op instead).
void setup(Workload w, const titan::core::FacilityConfig& config, const Fixture& fixture);

/// Run and time one untraced operation.  `op` numbers the output
/// directory of generate-sharded.
[[nodiscard]] OpOutput run_op(Workload w, const titan::core::FacilityConfig& config,
                              const Fixture& fixture, std::size_t op);

/// Check one operation's output against the setup's reference; returns
/// an empty string when it passes, else what failed.  Removes the op's
/// output directory.
[[nodiscard]] std::string check_op(Workload w, const Fixture& fixture, std::size_t op,
                                   const OpOutput& output, const Rendered& reference);

// Shared helpers.
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start);
/// The process's RSS high-water mark so far.
[[nodiscard]] double peak_rss_mib();
void write_reference(const Fixture& fixture, const Rendered& reference);
[[nodiscard]] Rendered read_reference(const Fixture& fixture);
/// Bytes of every regular file in `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::filesystem::path& dir);
/// Empty when `dir` holds exactly the files of `reference`, byte for
/// byte, and no *.tmp; else what differs.
[[nodiscard]] std::string compare_dirs(const std::filesystem::path& dir,
                                       const std::filesystem::path& reference);

}  // namespace perfbench
