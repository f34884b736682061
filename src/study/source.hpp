// StudySource: where a study's data comes from.
//
// Two implementations cover the paper's two positions: SimulatedSource
// runs the facility simulator (the "operate Titan for 21 months" stance,
// full ground truth), and DatasetSource ingests the on-disk text
// artifacts a real analyst would start from (console.log, jobs.log,
// smi_sweep.txt, manifest.txt) with no simulator access.  Both produce
// one StudyContext with the EventFrame built exactly once.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>

#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "study/context.hpp"

namespace titan::study {

class StudySource {
 public:
  virtual ~StudySource() = default;

  /// Build the context.  Throws std::runtime_error when the source's
  /// inputs are missing or unusable.
  [[nodiscard]] virtual StudyContext load() const = 0;

  /// Short human label ("simulated", "dataset") for CLI preambles only;
  /// never serialized into a StudyReport (reports must not depend on the
  /// source).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Runs core::run_study and downgrades the ground truth to the
/// console-recoverable view (plus the truth frame for ground-truth-only
/// kernels).  Capabilities: events, ledger, snapshot, trace, ground
/// truth, strikes.
class SimulatedSource final : public StudySource {
 public:
  explicit SimulatedSource(core::FacilityConfig config) : config_{config} {}

  [[nodiscard]] StudyContext load() const override;
  [[nodiscard]] std::string name() const override { return "simulated"; }

 private:
  core::FacilityConfig config_;
};

/// Ingests a dataset directory written by write_dataset or the sharded
/// producers (or any producer of the same formats).  Binary containers,
/// when present, are preferred: the tdf::container_roster of the
/// directory (what the manifest claims, else a `dataset.tdf` or the
/// `dataset.shard-K.tdf` run; an unclaimed container is never read) is
/// streamed window by window and k-way merged into the global event
/// order, so a monolithic and a sharded dataset of one study load
/// byte-identically.  Otherwise
/// the text artifacts are loaded: console.log is required;
/// jobs.log, smi_sweep.txt and manifest.txt are optional (capabilities
/// shrink accordingly; without a manifest the period is inferred from the
/// event stream).  Capabilities: events, plus snapshot when the sweep
/// exists.
///
/// Under IngestPolicy::kStrict (the default) structural corruption --
/// checksum mismatches, manifest damage, NUL/overlong lines, timestamp
/// regressions, a manifest-claimed file gone missing, a shard claim the
/// containers on disk disagree with, a container the manifest does not
/// claim -- throws
/// ingest::IngestError naming file, line and taxonomy code.  Under
/// kSalvage the load repairs what it can, quarantines the rest, and
/// attaches the full ingest::IngestReport to the context.
///
/// Fleet-profile validation: datasets record the profile they were
/// generated under (TDF meta segment, manifest `profile` line).  Passing
/// `expected_profile` asserts the load runs under that profile: a
/// disagreement with the recording -- different profile, unknown name, or
/// a content-hash divergence -- is E_PROFILE_MISMATCH (fatal under
/// kStrict; under kSalvage the load warns and adopts the dataset's
/// recorded profile).  With the default nullptr the recorded profile is
/// adopted silently; pre-profile datasets load as k20x-titan.
class DatasetSource final : public StudySource {
 public:
  explicit DatasetSource(std::filesystem::path dir,
                         ingest::IngestPolicy policy = ingest::IngestPolicy::kStrict,
                         const profile::FleetProfile* expected_profile = nullptr)
      : dir_{std::move(dir)}, policy_{policy}, expected_profile_{expected_profile} {}

  [[nodiscard]] StudyContext load() const override;
  [[nodiscard]] std::string name() const override { return "dataset"; }
  [[nodiscard]] ingest::IngestPolicy policy() const noexcept { return policy_; }

 private:
  std::filesystem::path dir_;
  ingest::IngestPolicy policy_;
  const profile::FleetProfile* expected_profile_;
};

/// On-disk dataset representation write_dataset produces.
enum class DatasetFormat : std::uint8_t {
  kText,    ///< console.log / jobs.log / smi_sweep.txt / manifest.txt
  kBinary,  ///< dataset.tdf (titan::tdf container) + manifest.txt
};

/// Write the on-disk dataset artifacts for a context.
///
/// kText writes console.log, jobs.log, smi_sweep.txt and manifest.txt;
/// kBinary writes a dataset.tdf container holding the same columns plus a
/// manifest.txt.  Either way the manifest carries the period, the
/// retirement accounting cutoff and FNV-1a content checksums (verified by
/// DatasetSource::load), so a round-trip reproduces the source report
/// bytes.  Contexts with ground truth serialize the exact simulator
/// console log; contexts without (e.g. a loaded dataset being converted)
/// serialize the console-recoverable view, which is the same event
/// stream.  Doubles (job utilization, smi temperatures) are quantized to
/// the text serialization's precision in both formats, so text and binary
/// datasets of one context load byte-identically.
///
/// Every file is written atomically (tmp + fsync + rename) with the
/// manifest last, so a crash mid-write can never leave a directory that
/// passes checksum verification with partial content.  Writing over an
/// existing dataset first removes whatever the new layout does not write
/// (e.g. a binary container under a text rewrite), so the directory
/// loads as the last write, never as a mix of two.
void write_dataset(const StudyContext& context, const std::filesystem::path& dir,
                   DatasetFormat format = DatasetFormat::kText);

}  // namespace titan::study
