// The traced operation: each workload's op replayed through the public
// functions of the layers its one top-level call hides, with a span
// around every layer call.  A replay counts only when it reproduces the
// untraced op's output byte for byte.
#include "replay.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/events_view.hpp"
#include "ckpt/study_ckpt.hpp"
#include "core/sharded.hpp"
#include "fault/campaign.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "logsim/console.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "par/parallel.hpp"
#include "profile/fleet_profile.hpp"
#include "sched/users.hpp"
#include "sched/workload.hpp"
#include "stats/rng.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace titan;
using study::StudyContext;
using Counters = std::map<std::string, double>;

constexpr auto kStrict = ingest::IngestPolicy::kStrict;

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto spanned(Tracer& tracer, std::string name, Fn&& fn) {
  const Scope scope{tracer, std::move(name)};
  return fn();
}

void count_placements(const sched::JobTrace& trace, Counters& c) {
  double placements = 0.0;
  for (const auto& job : trace.jobs()) placements += static_cast<double>(job.node_count());
  c["sched.jobs"] = static_cast<double>(trace.jobs().size());
  c["sched.placements"] = placements;
}

// ---------------------------------------------------------------------------
// SimulatedSource::load: core::run_study's stages, then the context build.
// ---------------------------------------------------------------------------

StudyContext simulated_load(const core::FacilityConfig& config, Tracer& tr, Counters& c) {
  const Scope load{tr, "study.load"};
  const stats::Rng master{config.seed};
  const auto users = spanned(tr, "sched.users", [&] {
    return sched::make_user_population(config.users, master.fork("users"));
  });
  auto workload = spanned(tr, "sched.workload", [&] {
    return sched::simulate_workload(config.workload, users, master.fork("workload"));
  });
  count_placements(workload.trace, c);
  c["sched.shed_jobs"] = static_cast<double>(workload.shed_jobs);

  gpu::Fleet fleet;
  auto traits = spanned(tr, "fault.fleet_init", [&] {
    return fault::initialize_fleet(fleet, config.period.begin, master.fork("fleet"),
                                   config.campaign.model);
  });
  auto campaign = spanned(tr, "fault.campaign", [&] {
    return fault::run_fault_campaign(fleet, std::move(traits), workload.trace, config.campaign,
                                     master.fork("faults"));
  });
  c["fault.sbe_strikes"] = static_cast<double>(campaign.sbe_strikes.size());

  StudyContext context;
  context.truth = core::StudyDataset{config,
                                     std::move(workload.trace),
                                     std::move(workload.deadlines),
                                     workload.utilization(),
                                     std::move(fleet),
                                     std::move(campaign.traits),
                                     std::move(campaign.events),
                                     std::move(campaign.sbe_strikes),
                                     std::move(campaign.hot_spare_actions),
                                     campaign.bad_node,
                                     {},
                                     {}};
  auto& truth = *context.truth;
  truth.console_log = spanned(tr, "logsim.console_emit", [&] {
    return logsim::emit_console_log(truth.events, *config.profile);
  });
  if (config.take_final_snapshot) {
    truth.final_snapshot = spanned(tr, "logsim.snapshot", [&] {
      return logsim::take_snapshot(truth.fleet, config.period.end - 1, config.campaign.thermal);
    });
  }
  c["logsim.console_lines"] = static_cast<double>(truth.console_log.size());

  context.profile = truth.config.profile;
  context.period = truth.config.period;
  context.accounting_from = truth.config.campaign.timeline.new_driver;
  context.events = analysis::as_parsed(truth.events);
  {
    const Scope frame{tr, "analysis.frame_build"};
    context.frame = analysis::EventFrame::build(
        std::span<const parse::ParsedEvent>{context.events}, &truth.fleet.ledger());
    context.truth_frame = analysis::EventFrame::build(
        std::span<const xid::Event>{truth.events}, &truth.fleet.ledger());
  }
  context.snapshot = truth.final_snapshot;
  context.load_stats.console_lines = truth.console_log.size();
  context.load_stats.job_lines = truth.trace.jobs().size();
  context.load_stats.smi_blocks = truth.final_snapshot.records.size();
  context.capabilities = study::kEvents | study::kLedger | study::kTrace |
                         study::kGroundTruth | study::kStrikes;
  if (truth.config.take_final_snapshot) context.capabilities |= study::kSnapshot;
  c["fault.events"] = static_cast<double>(context.events.size());
  return context;
}

// ---------------------------------------------------------------------------
// DatasetSource::load under the strict policy, binary layouts only.
// ---------------------------------------------------------------------------

/// Strict profile resolution: adopt the recorded profile, which must be
/// one this build knows, with the same content hash.
void adopt_profile(StudyContext& context, const std::string& name, std::uint64_t hash) {
  if (name.empty()) {
    context.profile = &profile::k20x_titan();
    return;
  }
  const auto* recorded = profile::find_profile(name);
  if (recorded == nullptr || recorded->content_hash() != hash) {
    throw std::runtime_error{"dataset profile '" + name + "' does not match this build"};
  }
  context.profile = recorded;
}

/// Crash-state gate, then the manifest and its non-container checksum
/// claims (containers self-validate as they decode).
ingest::ManifestIngest gate_and_manifest(const fs::path& dir, ingest::IngestReport& report) {
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.path().extension() == ".tmp") {
      throw std::runtime_error{"orphan " + entry.path().filename().string()};
    }
  }
  const auto manifest_path = dir / "manifest.txt";
  if (fs::exists(dir / ckpt::kStudyCheckpointFileName) && !fs::exists(manifest_path)) {
    throw std::runtime_error{"generation checkpoint present but no committed manifest"};
  }
  ingest::ManifestIngest manifest;
  if (!fs::exists(manifest_path)) return manifest;
  manifest = ingest::ingest_manifest_text(study::read_all(manifest_path), "manifest.txt",
                                          kStrict, report);
  for (const auto& [name, expected] : manifest.checksums) {
    const auto path = dir / name;
    if (!fs::exists(path)) throw std::runtime_error{"manifest names missing " + name};
    if (name.ends_with(".tdf")) continue;
    if (ingest::content_checksum(study::read_all(path)) != expected) {
      throw std::runtime_error{"checksum mismatch on " + name};
    }
  }
  return manifest;
}

using Columns = core::ShardEventColumns;

/// Frame, row view and study window from decoded columns.
StudyContext context_from_columns(const Columns& cols, stats::TimeSec begin, stats::TimeSec end,
                                  stats::TimeSec accounting,
                                  const ingest::ManifestIngest& manifest, Tracer& tr) {
  StudyContext context;
  {
    const Scope frame{tr, "analysis.frame_build"};
    context.frame =
        analysis::EventFrame::from_columns(cols.times, cols.nodes, cols.kinds, cols.structures);
  }
  context.events.resize(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    context.events[i] =
        parse::ParsedEvent{cols.times[i], cols.nodes[i], cols.kinds[i], cols.structures[i]};
  }
  context.capabilities = study::kEvents;
  if (begin != 0 || end != 0) {
    context.period.begin = begin;
    context.period.end = end;
    context.accounting_from = accounting;
  } else {
    context.period.begin = manifest.have_begin ? manifest.begin : cols.times.front();
    context.period.end = manifest.have_end ? manifest.end : cols.times.back() + 1;
    context.accounting_from = manifest.have_accounting ? manifest.accounting : context.period.begin;
  }
  context.load_stats.binary = true;
  return context;
}

StudyContext load_monolithic(const fs::path& path, const ingest::ManifestIngest& manifest,
                             ingest::IngestReport& report, Tracer& tr, Counters& c) {
  auto data = spanned(tr, "tdf.read", [&] { return tdf::read_tdf(path, kStrict, report); });
  if (data.times.empty()) throw std::runtime_error{"dataset contains no events"};
  c["tdf.rows_decoded"] += static_cast<double>(data.times.size());
  c["tdf.bytes_read"] += static_cast<double>(fs::file_size(path));

  Columns cols{std::move(data.times), std::move(data.nodes), std::move(data.kinds),
               std::move(data.structures)};
  auto context = context_from_columns(cols, data.period_begin, data.period_end,
                                      data.accounting_from, manifest, tr);
  if (data.has_jobs) {
    context.load_stats.job_lines = data.jobs.size();
    context.job_log = std::move(data.jobs);
  }
  if (data.has_smi) {
    context.snapshot = std::move(data.snapshot);
    context.load_stats.smi_blocks = context.snapshot.records.size();
    context.capabilities |= study::kSnapshot;
  }
  context.load_stats.tdf_segments =
      std::size_t{6} + (data.has_jobs ? 1U : 0U) + (data.has_smi ? 1U : 0U);
  context.load_stats.tdf_bytes = static_cast<std::size_t>(fs::file_size(path));
  adopt_profile(context, data.profile_name, data.profile_hash);
  return context;
}

StudyContext dataset_load(const fs::path& dir, Tracer& tr, Counters& c) {
  const Scope load{tr, "study.load"};
  ingest::IngestReport report{kStrict};
  const auto manifest = gate_and_manifest(dir, report);
  const auto mono = dir / std::string{tdf::kTdfFileName};
  if (!fs::exists(mono)) throw std::runtime_error{"no monolithic binary dataset at " + dir.string()};
  return load_monolithic(mono, manifest, report, tr, c);
}

// ---------------------------------------------------------------------------
// AnalysisRegistry::run: the same one-task-per-kernel parallel sweep,
// with each kernel's own interval recorded.
// ---------------------------------------------------------------------------

study::StudyReport sweep(Workload w, const StudyContext& context, Tracer& tr) {
  const Scope span{tr, "study.sweep"};
  const auto& registry = study::AnalysisRegistry::standard();
  const auto names = selection(w, context);
  std::vector<const study::AnalysisRegistry::Entry*> entries;
  for (const auto& name : names) {
    const auto* entry = registry.find(name);
    if (entry == nullptr || !context.has(entry->needs)) {
      throw std::runtime_error{"context cannot run " + name};
    }
    entries.push_back(entry);
  }
  study::StudyReport report;
  report.period = context.period;
  if (context.ingest_report) report.ingest = study::ingest_section(*context.ingest_report);
  std::vector<double> start(entries.size());
  std::vector<double> end(entries.size());
  report.results = par::parallel_map(0, entries.size(), 1, [&](std::size_t i) {
    start[i] = tr.now();
    auto result = entries[i]->kernel(context);
    end[i] = tr.now();
    return result;
  });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    tr.record("analysis." + names[i], span.id(), start[i], end[i]);
  }
  return report;
}

// ---------------------------------------------------------------------------
// study::generate_sharded_dataset (fresh directory, no resume).
// ---------------------------------------------------------------------------

void generate(const core::FacilityConfig& config, const fs::path& dir, Tracer& tr, Counters& c) {
  const Scope span{tr, "study.generate"};
  std::optional<core::ShardedStudy> sharded;
  {
    const Scope plan{tr, "core.plan"};
    sharded.emplace(config, kShards);
  }
  count_placements(sharded->trace(), c);
  fs::create_directories(dir);

  ckpt::StudyCheckpoint state;
  state.seed = config.seed;
  state.profile_name = std::string{config.profile->name};
  state.profile_hash = config.profile->content_hash();
  state.shard_count = kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    state.card_fences.push_back(sharded->shard_card_range(s).first);
  }
  state.card_fences.push_back(sharded->shard_card_range(kShards - 1).second);
  ckpt::save_study_checkpoint(state, dir);

  for (std::size_t s = 0; s < kShards; ++s) {
    auto columns = spanned(tr, "core.shard_events", [&] { return sharded->shard_events(s); });
    c["fault.events"] += static_cast<double>(columns.size());

    tdf::TdfDataset data;
    data.period_begin = config.period.begin;
    data.period_end = config.period.end;
    data.accounting_from = config.campaign.timeline.new_driver;
    data.profile_name = std::string{config.profile->name};
    data.profile_hash = config.profile->content_hash();
    data.times = std::move(columns.times);
    data.nodes = std::move(columns.nodes);
    data.kinds = std::move(columns.kinds);
    data.structures = std::move(columns.structures);
    if (s + 1 == kShards) {
      data.has_jobs = true;
      for (const auto& line : logsim::emit_job_log(sharded->trace())) {
        if (const auto rec = logsim::parse_job_log_line(line)) data.jobs.push_back(*rec);
      }
      data.has_smi = true;
      const auto sweep_text =
          logsim::parse_smi_sweep_text(logsim::smi_sweep_text(sharded->final_snapshot()));
      data.snapshot.taken_at = sweep_text.taken_at;
      data.snapshot.records = sweep_text.records;
    }

    ckpt::ShardSeal seal;
    {
      const Scope write{tr, "tdf.write"};
      seal.shard = s;
      seal.file = tdf::shard_file_name(s);
      const auto encoded = tdf::encode_tdf(data);
      seal.checksum = ingest::content_checksum(encoded);
      seal.bytes = encoded.size();
      seal.events = data.event_count();
      seal.jobs = data.jobs.size();
      seal.smi_blocks = data.snapshot.records.size();
      study::atomic_write_text(dir / seal.file, encoded);
    }
    c["tdf.bytes_written"] += static_cast<double>(seal.bytes);
    state.sealed.push_back(std::move(seal));
    ckpt::save_study_checkpoint(state, dir);
  }

  std::vector<std::string> manifest = {
      std::string{ingest::kDatasetManifestHeader},
      "period_begin " + std::to_string(config.period.begin),
      "period_end " + std::to_string(config.period.end),
      "accounting_from " + std::to_string(config.campaign.timeline.new_driver),
      "profile " + std::string{config.profile->name} + ' ' +
          ingest::checksum_hex(config.profile->content_hash()),
      "shards " + std::to_string(kShards),
  };
  for (const auto& seal : state.sealed) {
    manifest.push_back("checksum " + seal.file + ' ' + ingest::checksum_hex(seal.checksum));
  }
  study::atomic_write_lines(dir / "manifest.txt", manifest);
  ckpt::remove_study_checkpoint(dir);
}

}  // namespace

std::vector<LayerMetric> layer_metric_names() {
  std::vector<LayerMetric> out = {
      {"sched.users_s", "s"},           {"sched.workload_s", "s"},
      {"sched.jobs", "count"},          {"sched.placements", "count"},
      {"sched.shed_jobs", "count"},     {"fault.fleet_init_s", "s"},
      {"fault.campaign_s", "s"},        {"fault.events", "count"},
      {"fault.sbe_strikes", "count"},   {"core.plan_s", "s"},
      {"core.shard_events_s", "s"},     {"core.shard_events_max_s", "s"},
      {"logsim.console_emit_s", "s"},   {"logsim.console_lines", "count"},
      {"logsim.snapshot_s", "s"},       {"analysis.frame_build_s", "s"},
  };
  for (const auto& name : study::AnalysisRegistry::standard().names()) {
    out.push_back({"analysis." + name + "_s", "s"});
  }
  const std::vector<LayerMetric> rest = {
      {"analysis.sweep_parallelism", "ratio"},
      {"study.load_s", "s"},
      {"study.sweep_s", "s"},
      {"study.render_s", "s"},
      {"study.report_bytes", "bytes"},
      {"study.generate_s", "s"},
      {"study.files_written", "count"},
      {"study.shards", "count"},
      {"study.tdf_segments", "count"},
      {"tdf.read_s", "s"},
      {"tdf.write_s", "s"},
      {"tdf.rows_decoded", "count"},
      {"tdf.bytes_read", "bytes"},
      {"tdf.bytes_written", "bytes"},
      {"faulttest.atomic_commits", "count"},
      {"proc.cpu_s", "s"},
      {"proc.cpu_util", "ratio"},
      {"proc.rss_load_mib", "MiB"},
      {"proc.rss_sweep_mib", "MiB"},
      {"proc.rss_render_mib", "MiB"},
      {"proc.rss_generate_mib", "MiB"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  for (const auto w :
       {Workload::kSimulateStudy, Workload::kGenerateSharded, Workload::kQueryDataset}) {
    out.push_back({std::string{workload_name(w)} + ".other_s", "s"});
  }
  return out;
}

ReplayTiming time_replay(Workload w, const core::FacilityConfig& config, const Fixture& fixture,
                         double min_seconds) {
  // Each call gets a fresh directory (generate) and a throwaway tracer.
  std::size_t calls = 0;
  const auto timed = [&](bool replay) {
    const auto dir = fixture.out(++calls);
    const auto start = std::chrono::steady_clock::now();
    Tracer tr;
    Counters c;
    if (w == Workload::kGenerateSharded) {
      if (replay) {
        generate(config, dir, tr, c);
      } else {
        (void)study::generate_sharded_dataset(config, kShards, dir);
      }
    } else if (w == Workload::kSimulateStudy) {
      (void)(replay ? simulated_load(config, tr, c) : study::SimulatedSource{config}.load());
    } else {
      (void)(replay ? dataset_load(fixture.data(), tr, c)
                    : study::DatasetSource{fixture.data()}.load());
    }
    const double secs = seconds_since(start);
    fs::remove_all(dir);
    return secs;
  };

  std::vector<double> replayed;
  std::vector<double> library;
  const auto start = std::chrono::steady_clock::now();
  while (replayed.size() < 3 || (seconds_since(start) < min_seconds && replayed.size() < 100)) {
    // Alternate which side goes first, so neither always runs warmer.
    const bool replay_first = replayed.size() % 2 == 0;
    const double first = timed(replay_first);
    const double second = timed(!replay_first);
    replayed.push_back(replay_first ? first : second);
    library.push_back(replay_first ? second : first);
  }
  const double replay_s = *std::min_element(replayed.begin(), replayed.end());
  const double library_s = *std::min_element(library.begin(), library.end());
  return ReplayTiming{w == Workload::kGenerateSharded ? "study.generate" : "study.load", replay_s,
                      library_s, replay_s / library_s, replayed.size()};
}

TraceResult run_traced(Workload w, const core::FacilityConfig& config, const Fixture& fixture,
                       const Rendered& reference, Tracer& tr) {
  Counters c;
  faulttest::FaultTestInit({});  // zero the kill-point census; the mode stays kNone
  const double cpu_before = cpu_s();
  Rendered report;
  int root = -1;
  {
    const Scope op{tr, std::string{workload_name(w)}};
    root = op.id();
    if (w == Workload::kGenerateSharded) {
      generate(config, fixture.out(0), tr, c);
      c["proc.rss_generate_mib"] = peak_rss_mib();
    } else {
      const auto context = w == Workload::kSimulateStudy
                               ? simulated_load(config, tr, c)
                               : dataset_load(fixture.data(), tr, c);
      c["proc.rss_load_mib"] = peak_rss_mib();
      const auto result = sweep(w, context, tr);
      c["proc.rss_sweep_mib"] = peak_rss_mib();
      report = spanned(tr, "study.render", [&] { return render(result); });
      c["proc.rss_render_mib"] = peak_rss_mib();
      c["study.shards"] = static_cast<double>(context.load_stats.shards);
      c["study.tdf_segments"] = static_cast<double>(context.load_stats.tdf_segments);
    }
  }

  TraceResult out;
  out.op_wall_s = tr.duration(root);
  c["proc.cpu_s"] = cpu_s() - cpu_before;
  c["proc.cpu_util"] = c["proc.cpu_s"] / out.op_wall_s;
  if (w == Workload::kGenerateSharded) {
    out.problem = compare_dirs(fixture.out(0), fixture.data());
    for (const auto& e : fs::directory_iterator{fixture.out(0)}) {
      if (e.is_regular_file()) c["study.files_written"] += 1.0;
    }
    fs::remove_all(fixture.out(0));
  } else {
    out.problem = report == reference ? std::string{} : "traced report differs from the reference";
    c["study.report_bytes"] = static_cast<double>(report.text.size() + report.json.size());
  }
  for (const auto& site : faulttest::fault_test_report().sites) {
    if (site.site == "io/atomic/post-rename") {
      c["faulttest.atomic_commits"] += static_cast<double>(site.hits);
    }
  }

  // Layer times are self times, except that the sweep's kernels run in
  // parallel: study.sweep_s is the sweep's wall time and each kernel's
  // time is its own interval.  So the op's wall time is other_s plus
  // every self time outside the sweep plus study.sweep_s.
  double kernels = 0.0;
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    const int id = static_cast<int>(i);
    if (id == root) {
      c[span.name + ".other_s"] += tr.self_time(id);
    } else if (span.name == "study.sweep") {
      c["study.sweep_s"] += tr.duration(id);
    } else if (span.parent >= 0 &&
               spans[static_cast<std::size_t>(span.parent)].name == "study.sweep") {
      c[span.name + "_s"] += tr.duration(id);
      kernels += tr.duration(id);
    } else {
      c[span.name + "_s"] += tr.self_time(id);
    }
    if (span.name == "core.shard_events") {
      c["core.shard_events_max_s"] = std::max(c["core.shard_events_max_s"], tr.duration(id));
    }
  }
  if (c["study.sweep_s"] > 0.0) c["analysis.sweep_parallelism"] = kernels / c["study.sweep_s"];

  for (const auto& metric : layer_metric_names()) {
    const auto it = c.find(metric.name);
    out.layers.push_back({metric.name, metric.unit, it == c.end() ? 0.0 : it->second});
    if (it != c.end()) c.erase(it);
  }
  for (const auto& [name, value] : c) {
    out.problem += (out.problem.empty() ? "" : "; ") + std::string{"undeclared metric "} + name;
  }
  return out;
}

}  // namespace perfbench
