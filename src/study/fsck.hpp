// Read-only crash-consistency check for a dataset directory -- the
// `titan-convert --fsck` engine.
//
// fsck_dataset answers one question without mutating anything: is this
// directory a cleanly committed dataset, or does it carry crash state a
// loader would reject?  It walks the same evidence the loaders do --
// orphan *.tmp files, a study.ckpt with no committed manifest, and
// manifest_findings, the claim walk DatasetSource::load runs too
// (checksum claims, hashing the TDF containers the load skips, the
// shard roster against the `shards N` claim, and containers the manifest
// does not claim) -- and reports every
// finding with its triage code.  The report text is byte-stable for a
// given directory state (no absolute paths, deterministic ordering), so
// it can be golden-tested and diffed across runs.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "ingest/triage.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

/// One fsck finding: the artifact, its triage code, and context.
struct FsckFinding {
  std::string file;
  ingest::TriageCode code = ingest::TriageCode::kFileMissing;
  std::string detail;

  friend bool operator==(const FsckFinding& a, const FsckFinding& b) = default;
};

/// The full read-only check result.
struct FsckResult {
  std::string layout;  ///< "binary", "sharded", "text" or "none"
  std::vector<FsckFinding> findings;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }

  /// Byte-stable plain-text report (suitable for golden tests).
  [[nodiscard]] std::string report_text() const;
};

/// The manifest's claims checked against `dir`, one finding per
/// disagreement, in claim order:
///   * each checksum claim: a missing shard container is
///     E_PARTIAL_SHARD_SET, any other missing file E_FILE_MISSING, and a
///     content mismatch E_CHECKSUM_MISMATCH.  `.tdf` containers are
///     hashed only with `hash_containers` (a container self-validates
///     every byte a load decodes);
///   * then each roster mismatch: a disagreement with the `shards N`
///     claim (E_PARTIAL_SHARD_SET), except a missing container the
///     checksum walk already named, and a container on disk the manifest
///     does not claim (E_UNCLAIMED_CONTAINER).
[[nodiscard]] std::vector<FsckFinding> manifest_findings(const std::filesystem::path& dir,
                                                         const ingest::ManifestIngest& manifest,
                                                         const tdf::ContainerRoster& roster,
                                                         bool hash_containers);

/// Check `dir` for crash state and integrity damage.  Read-only: never
/// quarantines, repairs or deletes.  Never throws on dataset damage --
/// damage IS the output (filesystem errors still surface as exceptions).
[[nodiscard]] FsckResult fsck_dataset(const std::filesystem::path& dir);

}  // namespace titan::study
