// Every dataset writer -- write_dataset (text and binary),
// write_sharded_dataset and generate_sharded_dataset -- runs one commit
// protocol (DatasetWrite below), in order:
//   1. intent: the study checkpoint lands first; then the old manifest,
//      orphan *.tmp files and every dataset artifact the new layout will
//      not write are removed, so until step 3 the directory loads as
//      E_CKPT_INCOMPLETE, never as a mix of two layouts;
//   2. artifacts: each text log or container is written atomically and
//      its checksum claim taken from the bytes in memory;
//   3. manifest last: the commit point;
//   4. the checkpoint is removed.
// Kill points: study/dataset/artifact after each artifact,
// study/dataset/checkpoint after the generator re-saves its plan, and
// study/dataset/{pre-manifest,committed} around step 3.
#include "study/sharded.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "ckpt/study_ckpt.hpp"
#include "core/sharded.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;

// Both formats round-trip doubles through the text serialization, so a
// text dataset and a binary dataset of the same study load into
// byte-identical contexts.  These two are that quantization rule.
std::vector<logsim::JobLogRecord> quantized_jobs(std::span<const std::string> job_lines) {
  std::vector<logsim::JobLogRecord> jobs;
  for (const auto& line : job_lines) {
    if (const auto rec = logsim::parse_job_log_line(line)) jobs.push_back(*rec);
  }
  return jobs;
}

logsim::SmiSnapshot quantized_smi(const logsim::SmiSnapshot& snapshot) {
  const auto sweep = logsim::parse_smi_sweep_text(logsim::smi_sweep_text(snapshot));
  logsim::SmiSnapshot out;
  out.taken_at = sweep.taken_at;
  out.records = sweep.records;
  return out;
}

/// The study identity every container meta and manifest records: a
/// container with no events yet.
tdf::TdfDataset container_meta(stats::StudyPeriod period, stats::TimeSec accounting_from,
                               const profile::FleetProfile& profile) {
  tdf::TdfDataset data;
  data.period_begin = period.begin;
  data.period_end = period.end;
  data.accounting_from = accounting_from;
  data.profile_name = std::string{profile.name};
  data.profile_hash = profile.content_hash();
  return data;
}

tdf::TdfDataset meta_of(const StudyContext& context) {
  return container_meta(context.period, context.accounting_from, *context.profile);
}

bool has_jobs(const StudyContext& context) {
  return context.truth.has_value() || !context.job_log.empty();
}

bool has_smi(const StudyContext& context) {
  return context.truth.has_value() || context.has(kSnapshot);
}

/// The container for events [lo, hi) of the context's stream, plus --
/// with `side_artifacts`, set on the last container -- the quantized job
/// and smi segments the context has.
tdf::TdfDataset container_of(const StudyContext& context, std::size_t lo, std::size_t hi,
                             bool side_artifacts) {
  auto data = meta_of(context);
  data.times.reserve(hi - lo);
  data.nodes.reserve(hi - lo);
  data.kinds.reserve(hi - lo);
  data.structures.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto& e = context.events[i];
    data.times.push_back(e.time);
    data.nodes.push_back(e.node);
    data.kinds.push_back(e.kind);
    data.structures.push_back(e.structure);
  }
  if (side_artifacts && has_jobs(context)) {
    data.has_jobs = true;
    data.jobs = quantized_jobs(detail::job_lines_of(context));
  }
  if (side_artifacts && has_smi(context)) {
    data.has_smi = true;
    data.snapshot = quantized_smi(context.snapshot);
  }
  return data;
}

/// The checkpoint a write saves first.  The default is the intent marker
/// of a writer that resumes by rerunning (no seed, no shard plan); the
/// generator passes its seed and its shards' card-serial fences (the
/// per-shard RNG stream cursors).
ckpt::StudyCheckpoint intent_checkpoint(const profile::FleetProfile& profile,
                                        std::uint64_t seed = 0,
                                        std::vector<std::size_t> card_fences = {0}) {
  ckpt::StudyCheckpoint checkpoint;
  checkpoint.seed = seed;
  checkpoint.profile_name = std::string{profile.name};
  checkpoint.profile_hash = profile.content_hash();
  checkpoint.shard_count = card_fences.size() - 1;
  checkpoint.card_fences = std::move(card_fences);
  return checkpoint;
}

/// dataset.tdf when `shards` is unset, else dataset.shard-0..N-1.tdf.
std::vector<std::string> container_names(std::optional<std::size_t> shards) {
  if (!shards) return {std::string{tdf::kTdfFileName}};
  std::vector<std::string> names;
  for (std::size_t s = 0; s < *shards; ++s) names.push_back(tdf::shard_file_name(s));
  return names;
}

ShardedWriteStats write_stats(std::span<const ckpt::ShardSeal> seals) {
  ShardedWriteStats out;
  out.shards = seals.size();
  for (const auto& seal : seals) {
    out.events += seal.events;
    out.peak_shard_events = std::max(out.peak_shard_events, seal.events);
    out.bytes += seal.bytes;
    out.jobs += seal.jobs;
    out.smi_blocks += seal.smi_blocks;
  }
  return out;
}

/// One durable dataset write: the commit protocol above.
class DatasetWrite {
 public:
  /// Step 1.  The new layout's own `artifacts` are never removed, so the
  /// containers a resumed checkpoint records as sealed survive.  The old
  /// manifest goes first, so from here on a failure reads as
  /// E_CKPT_INCOMPLETE.  Failing to scan the directory or to remove the
  /// manifest or a stale artifact throws: committing over it would let
  /// the loader study the older write.  Orphan *.tmp / *.quarantined files
  /// are removed best effort, since no loader reads them as data.
  DatasetWrite(fs::path dir, ckpt::StudyCheckpoint checkpoint,
               std::span<const std::string> artifacts)
      : dir_{std::move(dir)}, checkpoint_{std::move(checkpoint)} {
    fs::create_directories(dir_);
    ckpt::save_study_checkpoint(checkpoint_, dir_);
    fs::remove(dir_ / ingest::kManifestFileName);
    std::vector<fs::path> stale;
    std::vector<fs::path> orphans;
    for (const auto& entry : fs::directory_iterator{dir_}) {
      const auto name = entry.path().filename().string();
      const auto ext = entry.path().extension();
      if (ext == ".tmp" || ext == ".quarantined") {
        orphans.push_back(entry.path());
      } else if ((name == ingest::kConsoleFileName || name == ingest::kJobsFileName ||
                  name == ingest::kSmiFileName || tdf::is_container_file_name(name)) &&
                 std::ranges::find(artifacts, name) == artifacts.end()) {
        stale.push_back(entry.path());
      }
    }
    for (const auto& path : stale) fs::remove(path);
    std::error_code ec;
    for (const auto& path : orphans) fs::remove(path, ec);
  }

  void seal_text(const std::string& name, std::string_view text) {
    atomic_write_text(dir_ / name, text);
    TITAN_PTP("study/dataset/artifact");
    claims_.emplace_back(name, ingest::content_checksum(text));
  }

  void seal_container(std::size_t index, const std::string& name, const tdf::TdfDataset& data) {
    const auto written = tdf::write_tdf(data, dir_ / name);
    TITAN_PTP("study/dataset/artifact");
    claims_.emplace_back(name, written.checksum);
    auto& sealed = checkpoint_.sealed;
    sealed.resize(std::max(sealed.size(), index + 1));
    sealed[index] = {index, name, written.checksum, data.event_count(),
                     static_cast<std::size_t>(written.bytes), data.jobs.size(),
                     data.snapshot.records.size()};
  }

  /// Claim container `index` when the checkpoint records it as sealed
  /// and it is on disk (a resumed run); false when it must be written.
  bool keep_sealed(std::size_t index) {
    const auto& sealed = checkpoint_.sealed;
    if (index >= sealed.size() || !fs::exists(dir_ / sealed[index].file)) return false;
    claims_.emplace_back(sealed[index].file, sealed[index].checksum);
    return true;
  }

  /// The generator's per-shard resume point.
  void save_checkpoint() {
    ckpt::save_study_checkpoint(checkpoint_, dir_);
    TITAN_PTP("study/dataset/checkpoint");
  }

  /// Steps 3-4.  The one manifest builder: study identity, an optional
  /// `shards N` line, one `checksum` line per artifact.
  ShardedWriteStats commit(const tdf::TdfDataset& meta, std::optional<std::size_t> shards) {
    std::vector<std::string> manifest = {
        std::string{ingest::kDatasetManifestHeader},
        "period_begin " + std::to_string(meta.period_begin),
        "period_end " + std::to_string(meta.period_end),
        "accounting_from " + std::to_string(meta.accounting_from),
        "profile " + meta.profile_name + ' ' + ingest::checksum_hex(meta.profile_hash),
    };
    if (shards) manifest.push_back("shards " + std::to_string(*shards));
    for (const auto& [name, sum] : claims_) {
      manifest.push_back("checksum " + name + ' ' + ingest::checksum_hex(sum));
    }
    TITAN_PTP("study/dataset/pre-manifest");
    atomic_write_lines(dir_ / ingest::kManifestFileName, manifest);
    TITAN_PTP("study/dataset/committed");
    ckpt::remove_study_checkpoint(dir_);
    return write_stats(checkpoint_.sealed);
  }

 private:
  fs::path dir_;
  ckpt::StudyCheckpoint checkpoint_;
  std::vector<std::pair<std::string, std::uint64_t>> claims_;  ///< manifest order
};

/// The re-sharding loop: the context's stream in even contiguous slices,
/// one container each (the time-sorted stream merges back losslessly
/// from any bounds).  Unset `shards` is the monolithic case: one
/// dataset.tdf and no `shards` manifest line.
ShardedWriteStats write_containers(const StudyContext& context, const fs::path& dir,
                                   std::optional<std::size_t> shards) {
  const auto names = container_names(shards);
  DatasetWrite write{dir, intent_checkpoint(*context.profile), names};
  const std::size_t total = context.events.size();
  const std::size_t count = names.size();
  for (std::size_t s = 0; s < count; ++s) {
    write.seal_container(s, names[s],
                         container_of(context, total * s / count, total * (s + 1) / count,
                                      s + 1 == count));
  }
  return write.commit(meta_of(context), shards);
}

/// The checkpoint pinning a generator run's identity: seed, profile and
/// shard plan.
ckpt::StudyCheckpoint checkpoint_plan(const core::FacilityConfig& config,
                                      const core::ShardedStudy& sharded) {
  const std::size_t shards = sharded.shard_count();
  std::vector<std::size_t> fences;
  for (std::size_t s = 0; s < shards; ++s) fences.push_back(sharded.shard_card_range(s).first);
  fences.push_back(sharded.shard_card_range(shards - 1).second);
  return intent_checkpoint(*config.profile, config.seed, std::move(fences));
}

/// Resumed runs must replay the SAME campaign: a checkpoint from a
/// different seed, profile or shard plan would splice streams from two
/// different studies into one dataset.
void require_plan_match(const ckpt::StudyCheckpoint& prior,
                        const ckpt::StudyCheckpoint& plan) {
  const auto fail = [](std::string_view what) {
    throw ingest::IngestError{std::string{ckpt::kStudyCheckpointFileName}, 0,
                              ingest::TriageCode::kCkptMismatch,
                              std::string{what} +
                                  " differs from the interrupted run; resume with the "
                                  "original config or start a fresh directory"};
  };
  if (prior.seed != plan.seed) fail("seed");
  if (prior.profile_name != plan.profile_name || prior.profile_hash != plan.profile_hash) {
    fail("fleet profile");
  }
  if (prior.shard_count != plan.shard_count) fail("shard count");
  if (prior.card_fences != plan.card_fences) fail("shard card-fence plan");
}

}  // namespace

ShardedWriteStats generate_sharded_dataset(const core::FacilityConfig& config,
                                           std::size_t shard_count,
                                           const std::filesystem::path& dir,
                                           bool resume) {
  core::ShardedStudy sharded{config, shard_count};  // throws on shard_count == 0

  auto plan = checkpoint_plan(config, sharded);
  if (resume) {
    if (fs::exists(dir / ingest::kManifestFileName)) {
      // Already committed: the manifest is the commit point, so there is
      // nothing to redo.  Recover the summary stats from a complete
      // checkpoint if one lingers (salvage decode: stale damage must not
      // fail a finished dataset), then drop it.
      ingest::IngestReport scratch{ingest::IngestPolicy::kSalvage};
      const auto prior =
          ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kSalvage, scratch);
      ckpt::remove_study_checkpoint(dir);
      auto out = prior && prior->complete() ? write_stats(prior->sealed) : ShardedWriteStats{};
      out.shards = shard_count;
      return out;
    }
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    const auto prior =
        ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kStrict, report);
    if (prior) {
      require_plan_match(*prior, plan);
      plan.sealed = prior->sealed;
    }
  }
  const auto names = container_names(shard_count);
  DatasetWrite write{dir, std::move(plan), names};
  const auto meta =
      container_meta(config.period, config.campaign.timeline.new_driver, *config.profile);

  for (std::size_t s = 0; s < shard_count; ++s) {
    // Shards are ALWAYS regenerated, even when their container is already
    // sealed: phase D mutates each card's InfoROM, and the final
    // snapshot (last shard) needs every card's end-of-campaign state.
    auto columns = sharded.shard_events(s);
    if (write.keep_sealed(s)) continue;  // committed by the interrupted run

    auto data = meta;
    data.times = std::move(columns.times);
    data.nodes = std::move(columns.nodes);
    data.kinds = std::move(columns.kinds);
    data.structures = std::move(columns.structures);
    if (s + 1 == shard_count) {
      // Side artifacts ride in the last shard: the job trace is resident
      // for the whole campaign anyway, and the smi sweep needs every
      // card's end-of-campaign state (available only after the final
      // shard ran).
      data.has_jobs = true;
      data.jobs = quantized_jobs(logsim::emit_job_log(sharded.trace()));
      data.has_smi = true;
      data.snapshot = quantized_smi(sharded.final_snapshot());
    }
    write.seal_container(s, names[s], data);
    write.save_checkpoint();
  }
  return write.commit(meta, shard_count);
}

ShardedWriteStats write_sharded_dataset(const StudyContext& context,
                                        const std::filesystem::path& dir,
                                        std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument{"write_sharded_dataset: shard_count must be positive"};
  }
  return write_containers(context, dir, shard_count);
}

void write_dataset(const StudyContext& context, const std::filesystem::path& dir,
                   DatasetFormat format) {
  if (format == DatasetFormat::kBinary) {
    (void)write_containers(context, dir, std::nullopt);
    return;
  }
  std::vector<std::pair<std::string, std::string>> logs;
  logs.emplace_back(ingest::kConsoleFileName, joined_lines(detail::console_lines_of(context)));
  if (has_jobs(context)) {
    logs.emplace_back(ingest::kJobsFileName, joined_lines(detail::job_lines_of(context)));
  }
  if (has_smi(context)) {
    logs.emplace_back(ingest::kSmiFileName, logsim::smi_sweep_text(context.snapshot));
  }
  std::vector<std::string> names;
  for (const auto& [name, text] : logs) names.push_back(name);
  DatasetWrite write{dir, intent_checkpoint(*context.profile), names};
  for (const auto& [name, text] : logs) write.seal_text(name, text);
  (void)write.commit(meta_of(context), std::nullopt);
}

}  // namespace titan::study
