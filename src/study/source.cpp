#include "study/source.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/events_view.hpp"
#include "ckpt/study_ckpt.hpp"
#include "logsim/console.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

/// Record a whole-file finding; under kStrict a fatal code throws
/// IngestError naming the file instead.
void triage_file(IngestPolicy policy, IngestReport& report, std::string_view file,
                 TriageCode code, SalvageAction action, std::string_view detail) {
  if (policy == IngestPolicy::kStrict && ingest::fatal_in_strict(code)) {
    throw ingest::IngestError{std::string{file}, 0, code, detail};
  }
  report.add(file, 0, code, action, detail);
}

/// Resolve which fleet profile a loaded context runs under, validating
/// the dataset's recording (when present) against the profile the load
/// asked for (when given).  Any disagreement -- unknown recorded name,
/// content-hash divergence, or recorded != requested -- is
/// E_PROFILE_MISMATCH: fatal under kStrict, warn-and-adopt under
/// kSalvage (the dataset's own profile wins when it resolves; the
/// requested/default profile is the fallback otherwise).
void resolve_profile(StudyContext& context, std::string_view source_file, bool recorded,
                     std::string_view recorded_name, std::uint64_t recorded_hash,
                     const profile::FleetProfile* expected, IngestPolicy policy,
                     IngestReport& report) {
  const profile::FleetProfile* fallback = expected ? expected : &profile::k20x_titan();
  if (!recorded) {
    context.profile = fallback;
    return;
  }
  const profile::FleetProfile* dataset_profile = profile::find_profile(recorded_name);
  if (dataset_profile == nullptr) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kIgnored,
                "dataset records unknown fleet profile '" + std::string{recorded_name} +
                    "' (this build knows: " + profile::profile_names() + ")");
    context.profile = fallback;
    return;
  }
  if (dataset_profile->content_hash() != recorded_hash) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kRepaired,
                "dataset profile '" + std::string{recorded_name} + "' hash " +
                    ingest::checksum_hex(recorded_hash) +
                    " disagrees with this build's " +
                    ingest::checksum_hex(dataset_profile->content_hash()));
  } else if (expected != nullptr && expected != dataset_profile) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kRepaired,
                "dataset was written under profile '" + std::string{recorded_name} +
                    "' but the load requested '" + std::string{expected->name} + "'");
  }
  context.profile = dataset_profile;
}

/// Every claim the manifest makes, checked against the directory (the
/// walk fsck runs too).  Each disagreement is an integrity finding, fatal
/// under kStrict.  A container the manifest vouches for by checksum but
/// the roster lacks is a lost slice of the event stream: fatal under
/// both policies, since no salvage can restore its events.
void verify_claims(const fs::path& dir, const ingest::ManifestIngest& manifest,
                   const tdf::ContainerRoster& roster, IngestPolicy policy,
                   IngestReport& report) {
  // Containers the load reads self-validate every byte they decode
  // (table + per-segment FNV-1a), so only a text load hashes them.
  for (const auto& finding :
       manifest_findings(dir, manifest, roster, /*hash_containers=*/!roster.binary())) {
    triage_file(policy, report, finding.file, finding.code, SalvageAction::kIgnored,
                finding.detail);
  }
  for (const auto& mismatch : roster.mismatches) {
    const bool claimed =
        std::any_of(manifest.checksums.begin(), manifest.checksums.end(),
                    [&](const auto& claim) { return claim.first == mismatch.file; });
    if (mismatch.missing && claimed) {
      throw ingest::IngestError{mismatch.file, 0, TriageCode::kPartialShardSet,
                                "sharded dataset claims " + std::to_string(manifest.shards) +
                                    " shards but " + mismatch.file + " is missing"};
    }
  }
}

/// The binary load path, for the monolithic dataset.tdf (a one-container
/// roster) and sharded layouts alike: open a streaming SegmentReader per
/// container, k-way merge their event streams by (time, container index),
/// and build the context from the merged columns.  Shard k holds strictly
/// earlier stream positions than shard k+1 at equal timestamps, so the
/// merge reproduces the unsharded order exactly -- the context is
/// byte-identical at any shard count.  Per-container resident decode
/// state is one window, so containers beyond the whole-file read cap
/// stream fine.
StudyContext load_containers(const fs::path& dir, const tdf::ContainerRoster& roster,
                             const ingest::ManifestIngest& manifest, IngestPolicy policy,
                             IngestReport& report, const profile::FleetProfile* expected) {
  std::vector<tdf::SegmentReader> readers;
  readers.reserve(roster.files.size());
  for (const auto& name : roster.files) readers.emplace_back(dir / name, policy, report);

  // Every shard must describe the same study window; shard 0 is the
  // reference and disagreement names the odd shard out.
  for (std::size_t s = 1; s < readers.size(); ++s) {
    if (readers[s].period_begin() != readers[0].period_begin() ||
        readers[s].period_end() != readers[0].period_end() ||
        readers[s].accounting_from() != readers[0].accounting_from()) {
      throw ingest::IngestError{readers[s].file_name(), 0, TriageCode::kTdfSegmentCorrupt,
                                "meta study window disagrees with " + readers[0].file_name()};
    }
    if (readers[s].profile_name() != readers[0].profile_name() ||
        readers[s].profile_hash() != readers[0].profile_hash()) {
      throw ingest::IngestError{readers[s].file_name(), 0, TriageCode::kTdfSegmentCorrupt,
                                "meta fleet profile disagrees with " + readers[0].file_name()};
    }
  }

  std::uint64_t total = 0;
  for (const auto& r : readers) total += r.event_count();
  if (total == 0) {
    throw ingest::IngestError{roster.files.empty() ? tdf::shard_file_name(0) : roster.files[0],
                              0, TriageCode::kNoEvents,
                              (roster.sharded() ? "sharded dataset at " : "dataset at ") +
                                  dir.string() + " contains no events"};
  }

  const auto columns = tdf::merge_event_streams(readers);

  StudyContext context;
  context.capabilities = kEvents;
  // Study window: the containers' (agreeing) meta segments are
  // authoritative; a manifest claim, when present, covered the container
  // bytes via its checksum.
  if (readers[0].period_begin() != 0 || readers[0].period_end() != 0) {
    context.period.begin = readers[0].period_begin();
    context.period.end = readers[0].period_end();
    context.accounting_from = readers[0].accounting_from();
  } else {
    context.period.begin = manifest.have_begin ? manifest.begin : columns.times.front();
    context.period.end = manifest.have_end ? manifest.end : columns.times.back() + 1;
    context.accounting_from =
        manifest.have_accounting ? manifest.accounting : context.period.begin;
  }

  // Side artifacts ride in whichever container carries the segment (the
  // writers put them in the last).
  for (auto& reader : readers) {
    std::size_t side_segments = 0;
    if (reader.has_jobs()) {
      std::vector<logsim::JobLogRecord> jobs;
      if (reader.read_jobs(jobs)) {
        context.load_stats.job_lines = jobs.size();
        context.job_log = std::move(jobs);
        ++side_segments;
      }
    }
    if (reader.has_smi()) {
      logsim::SmiSnapshot snapshot;
      if (reader.read_smi(snapshot)) {
        context.snapshot = std::move(snapshot);
        context.load_stats.smi_blocks = context.snapshot.records.size();
        context.capabilities |= kSnapshot;
        ++side_segments;
      }
    }
    // A monolithic load counts the segments it decoded; a sharded load
    // counts the segments each container's table holds.
    context.load_stats.tdf_segments +=
        roster.sharded() ? reader.segment_count() : std::size_t{6} + side_segments;
    context.load_stats.tdf_bytes += static_cast<std::size_t>(reader.file_bytes());
  }
  context.load_stats.binary = true;
  context.load_stats.shards = roster.sharded() ? readers.size() : 0;

  resolve_profile(context, readers[0].file_name(), !readers[0].profile_name().empty(),
                  readers[0].profile_name(), readers[0].profile_hash(), expected, policy,
                  report);

  // Unmap before the frame and row build: the mapped containers would
  // otherwise stay resident on top of the columns, frame and rows.
  readers.clear();
  context.frame = analysis::EventFrame::from_columns(columns.times, columns.nodes,
                                                     columns.kinds, columns.structures);
  context.events.resize(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    context.events[i] = parse::ParsedEvent{columns.times[i], columns.nodes[i], columns.kinds[i],
                                           columns.structures[i]};
  }
  return context;
}

StudyContext load_text(const fs::path& dir, const ingest::ManifestIngest& manifest,
                       IngestPolicy policy, IngestReport& report,
                       const profile::FleetProfile* expected) {
  StudyContext context;
  auto console = ingest::ingest_console_text(read_all(dir / ingest::kConsoleFileName),
                                             ingest::kConsoleFileName, policy, report);
  context.load_stats.console_lines = console.lines;
  context.load_stats.malformed_lines = console.malformed;
  context.load_stats.unrelated_lines = console.unrelated;
  context.events = std::move(console.events);
  if (context.events.empty()) {
    throw ingest::IngestError{std::string{ingest::kConsoleFileName}, 0, TriageCode::kNoEvents,
                              "dataset at " + dir.string() + " contains no console events"};
  }
  context.frame =
      analysis::EventFrame::build(std::span<const parse::ParsedEvent>{context.events});
  context.capabilities = kEvents;

  // Study window: manifest claims, else the event stream's span (foreign
  // datasets without a manifest).
  context.period.begin = manifest.have_begin ? manifest.begin : context.events.front().time;
  context.period.end = manifest.have_end ? manifest.end : context.events.back().time + 1;
  context.accounting_from =
      manifest.have_accounting ? manifest.accounting : context.period.begin;

  if (const auto jobs_path = dir / ingest::kJobsFileName; fs::exists(jobs_path)) {
    auto jobs = ingest::ingest_job_text(read_all(jobs_path), ingest::kJobsFileName, policy, report);
    context.load_stats.job_lines = jobs.lines;
    context.load_stats.malformed_job_lines = jobs.malformed;
    context.job_log = std::move(jobs.records);
  }

  if (const auto sweep_text = read_all(dir / ingest::kSmiFileName); !sweep_text.empty()) {
    auto sweep = ingest::ingest_smi_text(sweep_text, ingest::kSmiFileName, policy, report);
    context.snapshot.taken_at = sweep.taken_at;
    context.snapshot.records = std::move(sweep.records);
    context.load_stats.smi_blocks = context.snapshot.records.size();
    context.load_stats.malformed_smi_blocks = sweep.malformed_blocks;
    context.capabilities |= kSnapshot;
  }

  resolve_profile(context, ingest::kManifestFileName, manifest.have_profile, manifest.profile_name,
                  manifest.profile_hash, expected, policy, report);
  return context;
}

/// Crash-state gate, run before any artifact is parsed.  Two findings:
///
///   * Orphan *.tmp files -- a writer was killed mid-atomic-write.
///     Fatal under kStrict (E_ORPHAN_TMP); under kSalvage each orphan is
///     quarantined (renamed aside with a .quarantined suffix) and
///     recorded, then the load proceeds on the committed artifacts.
///   * A study.ckpt with no manifest.txt -- generation died between
///     artifacts and the commit point.  Fatal under BOTH policies: the
///     artifacts present may be an arbitrary prefix of the dataset, and
///     "salvaging" them would silently study a partial campaign.  The
///     remedy is resuming the generator, not loading harder.
void gate_crash_state(const fs::path& dir, IngestPolicy policy, IngestReport& report) {
  std::vector<fs::path> orphans;
  std::error_code ec;
  for (fs::directory_iterator it{dir, ec}, end; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".tmp") orphans.push_back(it->path());
  }
  std::sort(orphans.begin(), orphans.end());  // deterministic report order
  for (const auto& orphan : orphans) {
    const auto name = orphan.filename().string();
    triage_file(policy, report, name, TriageCode::kOrphanTmp, SalvageAction::kQuarantined,
                "leftover tmp file from an interrupted atomic write; quarantined as " +
                    name + ".quarantined");
    std::error_code rename_ec;
    fs::rename(orphan, orphan.string() + ".quarantined", rename_ec);
  }
  if (fs::exists(dir / ckpt::kStudyCheckpointFileName) &&
      !fs::exists(dir / ingest::kManifestFileName)) {
    throw ingest::IngestError{
        std::string{ckpt::kStudyCheckpointFileName}, 0, TriageCode::kCkptIncomplete,
        "generation checkpoint present but no committed manifest: the dataset write "
        "was interrupted; resume the generator (--resume) instead of loading"};
  }
}

}  // namespace

StudyContext SimulatedSource::load() const {
  StudyContext context;
  context.truth = core::run_study(config_);
  const auto& truth = *context.truth;

  context.profile = truth.config.profile;
  context.period = truth.config.period;
  context.accounting_from = truth.config.campaign.timeline.new_driver;
  context.events = analysis::as_parsed(truth.events);
  context.frame = analysis::EventFrame::build(
      std::span<const parse::ParsedEvent>{context.events}, &truth.fleet.ledger());
  context.truth_frame = analysis::EventFrame::build(std::span<const xid::Event>{truth.events},
                                                    &truth.fleet.ledger());
  context.snapshot = truth.final_snapshot;

  context.load_stats.console_lines = truth.console_log.size();
  context.load_stats.job_lines = truth.trace.jobs().size();
  context.load_stats.smi_blocks = truth.final_snapshot.records.size();

  context.capabilities = kEvents | kLedger | kTrace | kGroundTruth | kStrikes;
  if (truth.config.take_final_snapshot) context.capabilities |= kSnapshot;
  return context;
}

StudyContext DatasetSource::load() const {
  IngestReport report{policy_};
  gate_crash_state(dir_, policy_, report);

  // Manifest first: the producer's claims (study window, accounting
  // cutoff, shard count, content checksums) gate everything that follows.
  ingest::ManifestIngest manifest;
  const auto manifest_path = dir_ / ingest::kManifestFileName;
  const bool have_manifest = fs::exists(manifest_path);
  if (have_manifest) {
    manifest = ingest::ingest_manifest_text(read_all(manifest_path), ingest::kManifestFileName,
                                            policy_, report);
  }
  // Binary containers take precedence: they are the format written for
  // exactly this load path (mmap + columnar decode).  The manifest, when
  // committed, names which containers exist; a container it does not
  // claim is never read.  Text artifacts are the fallback.
  const auto roster = tdf::container_roster(dir_, have_manifest ? &manifest : nullptr);
  if (!roster.binary() && !fs::exists(dir_ / ingest::kConsoleFileName)) {
    // Fatal under either policy: with no container and no console log
    // there is nothing to salvage a study from.
    throw ingest::IngestError{std::string{ingest::kConsoleFileName}, 0, TriageCode::kFileMissing,
                              "no dataset at " + dir_.string()};
  }
  if (have_manifest) verify_claims(dir_, manifest, roster, policy_, report);
  StudyContext context =
      roster.binary()
          ? load_containers(dir_, roster, manifest, policy_, report, expected_profile_)
          : load_text(dir_, manifest, policy_, report, expected_profile_);

  // Only salvage loads carry the triage record into the report pipeline;
  // a strict load that got this far saw nothing fatal, and omitting the
  // (possibly benign-finding-bearing) report keeps clean-input study
  // reports byte-identical to an ingest-unaware build.
  if (policy_ == IngestPolicy::kSalvage) context.ingest_report = std::move(report);
  return context;
}

namespace detail {

std::vector<std::string> console_lines_of(const StudyContext& context) {
  if (context.truth) return context.truth->console_log;
  std::vector<std::string> lines;
  lines.reserve(context.events.size());
  for (const auto& e : context.events) {
    xid::Event event;
    event.time = e.time;
    event.node = e.node;
    event.kind = e.kind;
    event.structure = e.structure;
    lines.push_back(logsim::console_line(event));
  }
  return lines;
}

std::vector<std::string> job_lines_of(const StudyContext& context) {
  if (context.truth) return logsim::emit_job_log(context.truth->trace);
  std::vector<std::string> lines;
  lines.reserve(context.job_log.size());
  for (const auto& rec : context.job_log) lines.push_back(logsim::job_log_line(rec));
  return lines;
}

}  // namespace detail

}  // namespace titan::study
