// Crash-consistency kill points: compiled-in "pull the plug here" sites
// threaded through every durable-state transition of the dataset
// pipeline (tmp write, fsync, rename, manifest commit, checkpoint seal).
//
// The paper's central reliability lesson is that large systems fail
// mid-flight and the facility must recover without silently corrupting
// state.  PR 5 injected corruption into *data*; this layer injects
// failure into the *system itself*: a TITAN_PTP(site) call marks a point
// where the process may be killed, and a differential harness proves
// that every such kill leaves the dataset either cleanly salvageable or
// detectably, *namedly* broken -- never silently wrong.  The shape
// (PtP + Independent / RunLength / UniformOverRun modes) follows tsuba's
// FaultTest.h.
//
// Modes:
//   kNone            kill points only count hits (the default; ~free)
//   kIndependent     each hit crashes with a fixed probability, drawn
//                    from a deterministic named RNG stream
//   kRunLength       crash on exactly the Nth hit (N starts at 1) --
//                    the sweep mode: enumerate N = 1..total to visit
//                    every kill point of a run
//   kUniformOverRun  crash on a hit drawn uniformly from [1, run_length]
//
// A soft kill throws KillPointError (the in-process "plug pull" the
// differential harness catches); with FaultConfig::hard_exit the process
// instead dies on the spot via _exit(kKillPointExitCode) -- no unwinding,
// no flushing -- for forked child harnesses.  After one kill fires the
// machinery disarms (hits keep counting, nothing else kills) so a
// harness can catch, reload and resume in the same process.
//
// Configuration comes from FaultTestInit or, for CLIs, the
// TITANREL_FAULTTEST environment variable:
//   none | independent,p=<prob>[,seed=<u64>][,hard]
//        | runlength,n=<N>[,hard] | uniform,n=<N>[,seed=<u64>][,hard]
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace titan::faulttest {

/// How armed kill points behave.
enum class FaultMode : std::uint8_t {
  kNone,            ///< count hits, never kill
  kIndependent,     ///< kill each hit with probability `probability`
  kRunLength,       ///< kill on exactly hit number `run_length` (1-based)
  kUniformOverRun,  ///< kill on a hit drawn uniformly from [1, run_length]
};

[[nodiscard]] std::string_view mode_name(FaultMode mode) noexcept;

/// Process exit status of a hard-mode kill (chosen to collide with no
/// conventional exit code a writer under test would produce).
inline constexpr int kKillPointExitCode = 88;

struct FaultConfig {
  FaultMode mode = FaultMode::kNone;
  double probability = 0.0;       ///< kIndependent: per-hit kill probability
  std::uint64_t run_length = 0;   ///< kRunLength: the N; kUniformOverRun: upper bound
  std::uint64_t seed = 0;         ///< named-RNG stream seed for the stochastic modes
  bool hard_exit = false;         ///< _exit(kKillPointExitCode) instead of throwing
};

/// The in-process "plug pull": thrown by an armed kill point.  Carries
/// the site name, source location and the 1-based global hit number the
/// kill fired on.
class KillPointError : public std::runtime_error {
 public:
  KillPointError(std::string site, std::string file, std::size_t line, std::uint64_t hit);

  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::uint64_t hit() const noexcept { return hit_; }

 private:
  std::string site_;
  std::string file_;
  std::size_t line_;
  std::uint64_t hit_;
};

/// (Re)configure the kill-point machinery: installs `config`, re-arms,
/// and zeroes every hit counter.  FaultTestInit({}) returns to the free
/// counting-only default.
void FaultTestInit(const FaultConfig& config);

/// Parse a TITANREL_FAULTTEST-style spec.  Returns std::nullopt (and
/// changes nothing) for an empty or malformed spec.
[[nodiscard]] std::optional<FaultConfig> parse_fault_spec(std::string_view spec);

/// FaultTestInit from the TITANREL_FAULTTEST environment variable; a
/// missing/empty/malformed variable leaves the default (kNone) in place.
/// Returns true when a spec was installed.
bool fault_test_init_from_env();

/// The currently installed mode.
[[nodiscard]] FaultMode fault_mode() noexcept;

/// One kill point's tally since the last FaultTestInit.
struct SiteHits {
  std::string site;       ///< stable site name ("io/atomic/pre-rename")
  std::string file;       ///< basename of the defining source file
  std::size_t line = 0;
  std::uint64_t hits = 0;
};

/// Hit-counter report: every site that fired at least once since the
/// last FaultTestInit, sorted by site name (byte-stable).
struct FaultTestReport {
  FaultMode mode = FaultMode::kNone;
  std::uint64_t total_hits = 0;
  std::vector<SiteHits> sites;

  /// Deterministic plain-text rendering (site table + totals).
  [[nodiscard]] std::string summary_text() const;
};

[[nodiscard]] FaultTestReport fault_test_report();

namespace internal {
/// The kill-point primitive behind TITAN_PTP.  Counts the hit, then
/// kills (throw or _exit) when the installed mode says this is the one.
void PtP(const char* file, int line, std::string_view site);
}  // namespace internal

}  // namespace titan::faulttest

/// Mark a kill point.  `site` is a stable name ("study/dataset/artifact");
/// the source location rides along for the report.
#define TITAN_PTP(site) ::titan::faulttest::internal::PtP(__FILE__, __LINE__, (site))
