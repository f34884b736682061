#include "study/fsck.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>

#include "ckpt/study_ckpt.hpp"
#include "study/io.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;
using ingest::TriageCode;

void add_finding(FsckResult& out, std::string file, TriageCode code, std::string detail) {
  out.findings.push_back(FsckFinding{std::move(file), code, std::move(detail)});
}

/// Orphan tmp files (and quarantined copies a salvage load set aside):
/// evidence of an interrupted atomic write.
void check_orphans(const fs::path& dir, FsckResult& out) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it{dir, ec}, end; !ec && it != end; it.increment(ec)) {
    const auto ext = it->path().extension();
    if (ext == ".tmp" || ext == ".quarantined") {
      names.push_back(it->path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  for (auto& name : names) {
    add_finding(out, std::move(name), TriageCode::kOrphanTmp,
                "leftover file from an interrupted atomic write");
  }
}

/// Checkpoint state: a study.ckpt must decode, and must not outlive its
/// run (present without a manifest = generation died mid-write).
void check_checkpoint(const fs::path& dir, bool have_manifest, FsckResult& out) {
  if (!fs::exists(dir / ckpt::kStudyCheckpointFileName)) return;
  ingest::IngestReport report{ingest::IngestPolicy::kSalvage};
  const auto decoded =
      ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kSalvage, report);
  for (const auto& diag : report.diagnostics()) {
    add_finding(out, diag.file, diag.code, diag.detail);
  }
  if (!have_manifest) {
    add_finding(out, std::string{ckpt::kStudyCheckpointFileName},
                TriageCode::kCkptIncomplete,
                "generation checkpoint present but no committed manifest");
  } else if (decoded) {
    add_finding(out, std::string{ckpt::kStudyCheckpointFileName}, TriageCode::kCkptIncomplete,
                "checkpoint lingers beside a committed manifest (harmless; a resumed "
                "or rerun writer removes it)");
  }
}

bool claims_checksum(const ingest::ManifestIngest& manifest, std::string_view name) {
  return std::any_of(manifest.checksums.begin(), manifest.checksums.end(),
                     [&](const auto& claim) { return claim.first == name; });
}

}  // namespace

std::vector<FsckFinding> manifest_findings(const fs::path& dir,
                                           const ingest::ManifestIngest& manifest,
                                           const tdf::ContainerRoster& roster,
                                           bool hash_containers) {
  std::vector<FsckFinding> out;
  for (const auto& [name, expected] : manifest.checksums) {
    const auto path = dir / name;
    if (!fs::exists(path)) {
      // A missing shard container is its own crash-state class: the
      // roster the manifest promised is incomplete, which is what a
      // writer killed between shard commits leaves behind.
      const bool shard = name.starts_with("dataset.shard-") && name.ends_with(".tdf");
      out.push_back({name, shard ? TriageCode::kPartialShardSet : TriageCode::kFileMissing,
                     shard ? "manifest claims this shard container but it is missing"
                           : "manifest claims a checksum for this file but it is missing"});
      continue;
    }
    if (!hash_containers && name.ends_with(".tdf")) continue;
    const auto actual = ingest::content_checksum(read_all(path));
    if (actual != expected) {
      out.push_back({name, TriageCode::kChecksumMismatch,
                     "manifest records " + ingest::checksum_hex(expected) +
                         ", content hashes to " + ingest::checksum_hex(actual)});
    }
  }
  for (const auto& mismatch : roster.mismatches) {
    if (mismatch.missing && claims_checksum(manifest, mismatch.file)) continue;
    out.push_back({mismatch.file, TriageCode::kPartialShardSet, mismatch.detail});
  }
  return out;
}

std::string FsckResult::report_text() const {
  std::string text = "titanrel fsck\nlayout: " + layout + '\n';
  text += "findings: " + std::to_string(findings.size()) + '\n';
  for (const auto& finding : findings) {
    text += "  " + finding.file + ' ' + std::string{ingest::code_name(finding.code)} +
            ": " + finding.detail + '\n';
  }
  text += std::string{"verdict: "} + (clean() ? "clean" : "crash-state") + '\n';
  return text;
}

FsckResult fsck_dataset(const fs::path& dir) {
  FsckResult out;
  ingest::ManifestIngest manifest;
  ingest::IngestReport parse_report{ingest::IngestPolicy::kSalvage};
  const bool have_manifest = fs::exists(dir / ingest::kManifestFileName);
  if (have_manifest) {
    manifest = ingest::ingest_manifest_text(read_all(dir / ingest::kManifestFileName),
                                            ingest::kManifestFileName,
                                            ingest::IngestPolicy::kSalvage, parse_report);
  }
  const auto roster = tdf::container_roster(
      dir, manifest.have_shards ? std::optional{manifest.shards} : std::nullopt);
  if (roster.binary()) {
    out.layout = roster.sharded() ? "sharded" : "binary";
  } else {
    out.layout = fs::exists(dir / ingest::kConsoleFileName) ? "text" : "none";
  }

  check_orphans(dir, out);
  check_checkpoint(dir, have_manifest, out);
  if (!have_manifest) return out;

  for (const auto& diag : parse_report.diagnostics()) {
    add_finding(out, diag.file, diag.code, diag.detail);
  }
  auto findings = manifest_findings(dir, manifest, roster, /*hash_containers=*/true);
  out.findings.insert(out.findings.end(), std::make_move_iterator(findings.begin()),
                      std::make_move_iterator(findings.end()));
  // Every shard the roster reads must carry a checksum claim too.
  if (manifest.have_shards) {
    for (const auto& name : roster.files) {
      if (!claims_checksum(manifest, name)) {
        add_finding(out, name, TriageCode::kPartialShardSet,
                    "manifest declares " + std::to_string(manifest.shards) +
                        " shards but carries no checksum claim for this one");
      }
    }
  }
  return out;
}

}  // namespace titan::study
