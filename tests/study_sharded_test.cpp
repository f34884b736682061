// Sharded dataset path: shard-count invariance (reports byte-identical
// to the unsharded load at S in {1,3,7,16} x par widths {1,4}), k-way
// merge ordering with equal timestamps across shards, streaming
// SegmentReader equivalence at tiny windows, and the sharded layout's
// failure taxonomy (corrupt shard named, missing shard fatal, meta
// window disagreement named, the manifest's shard claim reconciled with
// the containers on disk, a container the manifest does not claim never
// read), and the commit protocol's stale-layout rule (a rewrite studies
// what it wrote, never what an older layout left).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "study/crashtest.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "par/pool.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::TriageCode;

constexpr std::uint64_t kSeed = 29;

/// RAII pool-width override (restores the previous width on scope exit).
class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::size_t threads) : saved_{par::thread_count()} {
    par::set_threads(threads);
  }
  ~ThreadsGuard() { par::set_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::size_t saved_;
};

/// Per-process scratch root (ctest runs each test as its own process).
fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_study_sharded_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }();
  return root;
}

const struct ScratchCleaner {
  ScratchCleaner() : path(scratch_root()) {}
  ~ScratchCleaner() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
} scratch_cleaner;

const study::AnalysisRegistry& registry() { return study::AnalysisRegistry::standard(); }

/// The unsharded reference: the same campaign written monolithic.
const fs::path& monolithic_dir() {
  static const fs::path dir = [] {
    const auto path = scratch_root() / "monolithic";
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    study::write_dataset(context, path, study::DatasetFormat::kBinary);
    return path;
  }();
  return dir;
}

/// Sharded dataset of the same campaign, generated out-of-core.
fs::path sharded_dir(std::size_t shards) {
  const auto path = scratch_root() / ("sharded_" + std::to_string(shards));
  if (!fs::exists(path)) {
    study::generate_sharded_dataset(core::quick_config(kSeed), shards, path);
  }
  return path;
}

/// Flip one byte in place.
void flip_byte(const fs::path& path, std::uintmax_t offset) {
  std::fstream io{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(io.good()) << path;
  io.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  io.get(byte);
  io.seekp(static_cast<std::streamoff>(offset));
  io.put(static_cast<char>(byte ^ 0x5a));
}

TEST(StudySharded, LoadMatchesMonolithicAtEveryShardCount) {
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                   std::size_t{16}}) {
    const auto context = study::DatasetSource{sharded_dir(shards)}.load();
    EXPECT_TRUE(context.load_stats.binary) << shards;
    EXPECT_EQ(context.load_stats.shards, shards);
    EXPECT_EQ(context.events, mono.events) << shards << " shards";
    EXPECT_EQ(context.period.begin, mono.period.begin) << shards;
    EXPECT_EQ(context.period.end, mono.period.end) << shards;
    EXPECT_EQ(context.accounting_from, mono.accounting_from) << shards;
    EXPECT_EQ(context.capabilities, mono.capabilities) << shards;
    EXPECT_EQ(context.job_log.size(), mono.job_log.size()) << shards;
    EXPECT_EQ(context.snapshot.records.size(), mono.snapshot.records.size()) << shards;
  }
}

TEST(StudySharded, ReportsByteIdenticalAcrossShardCountsAndWidths) {
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  const auto shared = registry().available(mono);
  ASSERT_FALSE(shared.empty());

  std::string reference_text;
  std::string reference_json;
  {
    const ThreadsGuard guard{1};
    const auto report = registry().run(mono, shared);
    reference_text = report.text();
    reference_json = report.json();
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                   std::size_t{16}}) {
    const auto context = study::DatasetSource{sharded_dir(shards)}.load();
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      const ThreadsGuard guard{width};
      const auto report = registry().run(context, shared);
      EXPECT_EQ(report.text(), reference_text) << shards << " shards, width " << width;
      EXPECT_EQ(report.json(), reference_json) << shards << " shards, width " << width;
    }
  }
}

TEST(StudySharded, ReshardingALoadedContextRoundTrips) {
  // The titan-convert path: load the monolithic dataset, split it into
  // contiguous shards, and expect the re-merged load byte-identical.
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  const auto dir = scratch_root() / "resharded_5";
  const auto stats = study::write_sharded_dataset(mono, dir, 5);
  EXPECT_EQ(stats.shards, 5U);
  EXPECT_EQ(stats.events, mono.events.size());

  const auto context = study::DatasetSource{dir}.load();
  EXPECT_EQ(context.events, mono.events);
  const auto shared = registry().available(mono);
  const auto a = registry().run(mono, shared);
  const auto b = registry().run(context, shared);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.json(), b.json());

  EXPECT_THROW((void)study::write_sharded_dataset(mono, dir, 0), std::invalid_argument);
}

TEST(StudySharded, KwayMergeOrdersEqualTimestampsByShardIndex) {
  // Hand-built shards with colliding timestamps: the merge must order
  // equal times by shard index, preserving in-shard order within one
  // shard (shard k holds strictly earlier provisional stream positions
  // than shard k+1).  Node ids encode provenance: shard s writes nodes
  // s*10, s*10+1, ...
  const auto dir = scratch_root() / "collide";
  fs::create_directories(dir);
  const stats::TimeSec t0 = 1000;
  const std::vector<std::vector<stats::TimeSec>> shard_times{
      {t0, t0 + 50, t0 + 50}, {t0, t0 + 50, t0 + 90}, {t0 + 50}};
  for (std::size_t s = 0; s < shard_times.size(); ++s) {
    tdf::TdfDataset data;
    data.period_begin = t0;
    data.period_end = t0 + 100;
    data.accounting_from = t0;
    for (std::size_t i = 0; i < shard_times[s].size(); ++i) {
      data.times.push_back(shard_times[s][i]);
      data.nodes.push_back(static_cast<topology::NodeId>(s * 10 + i));
      data.kinds.push_back(xid::ErrorKind::kDoubleBitError);
      data.structures.push_back(xid::MemoryStructure::kDeviceMemory);
    }
    tdf::write_tdf(data, dir / tdf::shard_file_name(s));
  }

  const auto context = study::DatasetSource{dir}.load();
  ASSERT_EQ(context.events.size(), 7U);
  const std::vector<topology::NodeId> expected_nodes{
      0,   // t0      shard 0
      10,  // t0      shard 1
      1,   // t0+50   shard 0 (in-shard order preserved...)
      2,   // t0+50   shard 0
      11,  // t0+50   shard 1 (...then the next shard)
      20,  // t0+50   shard 2
      12,  // t0+90   shard 1
  };
  for (std::size_t i = 0; i < expected_nodes.size(); ++i) {
    EXPECT_EQ(context.events[i].node, expected_nodes[i]) << "event " << i;
  }
  for (std::size_t i = 1; i < context.events.size(); ++i) {
    EXPECT_LE(context.events[i - 1].time, context.events[i].time) << "event " << i;
  }
}

TEST(StudySharded, SegmentReaderSmallWindowsMatchWholeFileDecode) {
  const auto path = monolithic_dir() / "dataset.tdf";
  IngestReport whole_report{IngestPolicy::kStrict};
  const auto whole = tdf::read_tdf(path, IngestPolicy::kStrict, whole_report);

  IngestReport report{IngestPolicy::kStrict};
  tdf::SegmentReader reader{path, IngestPolicy::kStrict, report, /*window_rows=*/7};
  EXPECT_EQ(reader.event_count(), whole.event_count());
  EXPECT_EQ(reader.period_begin(), whole.period_begin);
  EXPECT_EQ(reader.period_end(), whole.period_end);
  EXPECT_TRUE(reader.has_jobs());
  EXPECT_TRUE(reader.has_smi());

  tdf::TdfDataset streamed;
  tdf::EventWindow window;
  std::size_t windows = 0;
  while (reader.next_window(window) > 0) {
    ++windows;
    EXPECT_LE(window.size(), 7U);
    streamed.times.insert(streamed.times.end(), window.times.begin(), window.times.end());
    streamed.nodes.insert(streamed.nodes.end(), window.nodes.begin(), window.nodes.end());
    streamed.kinds.insert(streamed.kinds.end(), window.kinds.begin(), window.kinds.end());
    streamed.structures.insert(streamed.structures.end(), window.structures.begin(),
                               window.structures.end());
  }
  EXPECT_EQ(reader.rows_decoded(), reader.event_count());
  EXPECT_GE(windows, whole.event_count() / 7);
  EXPECT_EQ(streamed.times, whole.times);
  EXPECT_EQ(streamed.nodes, whole.nodes);
  EXPECT_EQ(streamed.kinds, whole.kinds);
  EXPECT_EQ(streamed.structures, whole.structures);

  std::vector<logsim::JobLogRecord> jobs;
  EXPECT_TRUE(reader.read_jobs(jobs));
  EXPECT_EQ(jobs.size(), whole.jobs.size());
  logsim::SmiSnapshot snapshot;
  EXPECT_TRUE(reader.read_smi(snapshot));
  EXPECT_EQ(snapshot.records.size(), whole.snapshot.records.size());

  EXPECT_THROW((tdf::SegmentReader{path, IngestPolicy::kStrict, report, 0}),
               std::invalid_argument);
}

TEST(StudySharded, CorruptShardNamedInDiagnostic) {
  // Damage in ONE shard container must surface as an IngestError naming
  // that shard's file -- under both policies (event columns are required
  // segments; there is no salvaging a slice of the stream).
  const auto src = sharded_dir(3);
  const auto dir = scratch_root() / "corrupt_shard";
  fs::remove_all(dir);
  fs::copy(src, dir);
  const auto victim = dir / tdf::shard_file_name(1);
  // Flip a byte inside the largest segment's body (a blind file-middle
  // flip could land in unchecksummed alignment padding).
  const auto info = tdf::inspect_tdf(victim);
  const auto largest = std::max_element(
      info.segments.begin(), info.segments.end(),
      [](const auto& a, const auto& b) { return a.length < b.length; });
  ASSERT_NE(largest, info.segments.end());
  ASSERT_GT(largest->length, 0U);
  flip_byte(victim, largest->offset + largest->length / 2);

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "corrupt shard must throw";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.file(), tdf::shard_file_name(1));
      EXPECT_NE(std::string{error.what()}.find("dataset.shard-1.tdf"), std::string::npos)
          << error.what();
    }
  }
}

TEST(StudySharded, MissingShardIsFatalUnderBothPolicies) {
  const auto src = sharded_dir(3);
  const auto dir = scratch_root() / "missing_shard";
  fs::remove_all(dir);
  fs::copy(src, dir);
  fs::remove(dir / tdf::shard_file_name(1));

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "missing shard must throw";
    } catch (const IngestError& error) {
      // The manifest's presence check (or, without claims, the shard
      // roster walk) must name the missing shard file either way.  A
      // hole in the shard roster is crash-shaped damage, so it carries
      // the dedicated E_PARTIAL_SHARD_SET code rather than generic
      // E_FILE_MISSING.
      EXPECT_EQ(error.code(), TriageCode::kPartialShardSet);
      EXPECT_EQ(error.file(), tdf::shard_file_name(1));
      EXPECT_NE(std::string{error.what()}.find("dataset.shard-1.tdf"), std::string::npos)
          << error.what();
    }
  }
}

TEST(StudySharded, MetaWindowDisagreementNamesTheOddShard) {
  const auto dir = scratch_root() / "window_mismatch";
  fs::create_directories(dir);
  for (std::size_t s = 0; s < 2; ++s) {
    tdf::TdfDataset data;
    data.period_begin = 1000;
    data.period_end = s == 0 ? 2000 : 3000;  // shard 1 disagrees
    data.accounting_from = 1000;
    data.times = {1500};
    data.nodes = {1};
    data.kinds = {xid::ErrorKind::kDoubleBitError};
    data.structures = {xid::MemoryStructure::kDeviceMemory};
    tdf::write_tdf(data, dir / tdf::shard_file_name(s));
  }

  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "meta window disagreement must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kTdfSegmentCorrupt);
    EXPECT_EQ(error.file(), tdf::shard_file_name(1));
    EXPECT_NE(std::string{error.what()}.find("disagrees with dataset.shard-0.tdf"),
              std::string::npos)
        << error.what();
  }
}

TEST(StudySharded, EmptyShardedDatasetRejectedWithNoEvents) {
  const auto dir = scratch_root() / "empty_shards";
  fs::create_directories(dir);
  tdf::TdfDataset data;
  data.period_begin = 1000;
  data.period_end = 2000;
  data.accounting_from = 1000;
  tdf::write_tdf(data, dir / tdf::shard_file_name(0));

  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "empty sharded dataset must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kNoEvents);
  }
}

/// A copy of the 3-shard dataset whose manifest claims `claim` shards;
/// every container keeps its checksum claim.
fs::path with_shard_claim(const std::string& name, const std::string& claim) {
  const auto dir = scratch_root() / name;
  fs::remove_all(dir);
  fs::copy(sharded_dir(3), dir);
  auto manifest = study::read_lines(dir / "manifest.txt");
  const auto line = std::find(manifest.begin(), manifest.end(), "shards 3");
  EXPECT_NE(line, manifest.end());
  if (line != manifest.end()) *line = "shards " + claim;
  study::write_lines(dir / "manifest.txt", manifest);
  return dir;
}

TEST(StudySharded, ClaimBelowTheShardsOnDiskIsNeverASilentDrop) {
  const auto dir = with_shard_claim("claim_below", "2");
  try {
    (void)study::DatasetSource{dir, IngestPolicy::kStrict}.load();
    FAIL() << "a strict load must not drop the unclaimed shard";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kPartialShardSet);
    EXPECT_EQ(error.file(), tdf::shard_file_name(2));
  }

  // Salvage loads the claimed roster and records the container it leaves
  // out.
  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(TriageCode::kPartialShardSet), 1U);
  EXPECT_EQ(context.load_stats.shards, 2U);
  const auto full = study::DatasetSource{sharded_dir(3)}.load();
  EXPECT_LT(context.events.size(), full.events.size());
}

TEST(StudySharded, AbsurdShardClaimIsAFindingNotAnAllocation) {
  const auto dir = with_shard_claim("claim_absurd", "4611686018427387904");
  try {
    (void)study::DatasetSource{dir, IngestPolicy::kStrict}.load();
    FAIL() << "a strict load must reject the claim";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kPartialShardSet);
    EXPECT_EQ(error.file(), tdf::shard_file_name(3));
  }

  // Salvage records the claim and loads every container the manifest
  // vouches for by checksum: nothing is dropped.
  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(TriageCode::kPartialShardSet), 1U);
  EXPECT_EQ(context.load_stats.shards, 3U);
  EXPECT_EQ(context.events, study::DatasetSource{sharded_dir(3)}.load().events);

  // fsck names the same disagreement (and does not walk the claim).
  const auto fsck = study::fsck_dataset(dir);
  ASSERT_EQ(fsck.findings.size(), 1U) << fsck.report_text();
  EXPECT_EQ(fsck.findings[0].code, TriageCode::kPartialShardSet);
  EXPECT_EQ(fsck.findings[0].file, tdf::shard_file_name(3));
}

/// `stray` (a container the manifest of `dir` does not claim) sits in
/// `dir`: a strict load names it, a salvage load records it and studies
/// exactly what `reference` (the claimed layout alone) studies, and
/// fsck names it too.
void expect_unclaimed_container(const fs::path& dir, const std::string& stray,
                                const fs::path& reference) {
  try {
    (void)study::DatasetSource{dir, IngestPolicy::kStrict}.load();
    ADD_FAILURE() << "a strict load read a container the manifest does not claim";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kUnclaimedContainer) << ingest::code_name(error.code());
    EXPECT_EQ(error.file(), stray);
  }
  const auto salvaged = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(salvaged.ingest_report.has_value());
  EXPECT_EQ(salvaged.ingest_report->count(TriageCode::kUnclaimedContainer), 1U);
  EXPECT_EQ(salvaged.events, study::DatasetSource{reference}.load().events);

  const auto fsck = study::fsck_dataset(dir);
  ASSERT_EQ(fsck.findings.size(), 1U) << fsck.report_text();
  EXPECT_EQ(fsck.findings[0].code, TriageCode::kUnclaimedContainer);
  EXPECT_EQ(fsck.findings[0].file, stray);
}

TEST(StudySharded, TheManifestDecidesWhichContainersLoad) {
  constexpr std::uint64_t kOtherSeed = 31;
  const auto b = study::SimulatedSource{core::quick_config(kOtherSeed)}.load();
  const std::string stray{tdf::kTdfFileName};

  // A seed-29 dataset.tdf copied into a committed seed-31 text dataset.
  const auto text_reference = scratch_root() / "unclaimed_text_reference";
  const auto text_dir = scratch_root() / "unclaimed_beside_text";
  study::write_dataset(b, text_reference, study::DatasetFormat::kText);
  study::write_dataset(b, text_dir, study::DatasetFormat::kText);
  fs::copy_file(monolithic_dir() / stray, text_dir / stray);
  expect_unclaimed_container(text_dir, stray, text_reference);

  // A stale seed-31 dataset.tdf beside a claimed seed-29 3-shard set.
  const auto stale = scratch_root() / "unclaimed_stale_monolithic";
  study::write_dataset(b, stale, study::DatasetFormat::kBinary);
  const auto sharded = scratch_root() / "unclaimed_beside_shards";
  fs::copy(sharded_dir(3), sharded);
  fs::copy_file(stale / stray, sharded / stray);
  expect_unclaimed_container(sharded, stray, sharded_dir(3));
}

/// Strict-load report of a dataset directory, text and JSON.
std::string strict_report(const fs::path& dir) {
  const auto context = study::DatasetSource{dir}.load();
  const auto report = registry().run_all(context);
  return report.text() + report.json();
}

/// Write `first` into a directory, then `last` over it: the result must
/// study exactly what a fresh directory of `last` studies, file for file.
void expect_rewrite_leaves_no_stale_layout(const std::string& name, const study::WriteFn& first,
                                           const study::WriteFn& last) {
  const auto dir = scratch_root() / ("rewrite_" + name);
  const auto fresh = scratch_root() / ("rewrite_" + name + "_fresh");
  first(dir);
  last(dir);
  last(fresh);
  EXPECT_EQ(strict_report(dir), strict_report(fresh)) << name;
  const auto diff = study::first_dir_difference(dir, fresh);
  EXPECT_FALSE(diff.has_value()) << name << ": " << *diff;
}

TEST(StudySharded, RewriteLeavesNoStaleLayout) {
  constexpr std::uint64_t kOtherSeed = 31;
  const auto a = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto b = study::SimulatedSource{core::quick_config(kOtherSeed)}.load();
  ASSERT_NE(a.events.size(), b.events.size());

  // Binary seed A, then text seed B: the stale dataset.tdf would win the
  // roster over the new text logs.
  expect_rewrite_leaves_no_stale_layout(
      "binary_then_text",
      [&](const fs::path& dir) { study::write_dataset(a, dir, study::DatasetFormat::kBinary); },
      [&](const fs::path& dir) { study::write_dataset(b, dir, study::DatasetFormat::kText); });
  // Monolithic, then re-sharded: dataset.tdf would shadow the shards.
  expect_rewrite_leaves_no_stale_layout(
      "monolithic_then_reshard",
      [&](const fs::path& dir) { study::write_dataset(a, dir, study::DatasetFormat::kBinary); },
      [&](const fs::path& dir) { study::write_sharded_dataset(b, dir, 3); });
  // Five shards, then two generated: shards 2..4 would outnumber the
  // manifest's claim.
  expect_rewrite_leaves_no_stale_layout(
      "five_then_two_shards",
      [&](const fs::path& dir) {
        study::generate_sharded_dataset(core::quick_config(kSeed), 5, dir);
      },
      [&](const fs::path& dir) {
        study::generate_sharded_dataset(core::quick_config(kOtherSeed), 2, dir);
      });
}

TEST(StudySharded, RewriteThatCannotRemoveAStaleArtifactDoesNotCommit) {
  const auto a = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto dir = scratch_root() / "unremovable_stale";
  study::write_dataset(a, dir, study::DatasetFormat::kText);
  // A non-empty directory named dataset.tdf cannot be removed as a file;
  // left behind, it would win the roster over the new text logs.
  fs::create_directories(dir / tdf::kTdfFileName);
  study::write_text(dir / tdf::kTdfFileName / "keep", "x\n");

  EXPECT_THROW(study::write_dataset(a, dir, study::DatasetFormat::kText),
               fs::filesystem_error);
  EXPECT_FALSE(fs::exists(dir / "manifest.txt"));
  try {
    (void)study::DatasetSource{dir}.load();
    ADD_FAILURE() << "a rewrite that kept a stale artifact loaded";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kCkptIncomplete) << ingest::code_name(error.code());
  }
}

TEST(StudySharded, InterruptedRewriteIsNamedNeverAMixOfLayouts) {
  const auto a = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto rewrite = [&](const fs::path& dir) { study::write_sharded_dataset(a, dir, 3); };
  // Count the rewrite's kill points, then die halfway through one that
  // overwrites a committed text dataset of the same study.
  faulttest::FaultTestInit(faulttest::FaultConfig{});
  rewrite(scratch_root() / "interrupted_reference");
  const auto total = faulttest::fault_test_report().total_hits;
  ASSERT_GT(total, 4U);

  const auto dir = scratch_root() / "interrupted_rewrite";
  study::write_dataset(a, dir, study::DatasetFormat::kText);
  faulttest::FaultConfig kill;
  kill.mode = faulttest::FaultMode::kRunLength;
  kill.run_length = total / 2;
  faulttest::FaultTestInit(kill);
  EXPECT_THROW(rewrite(dir), faulttest::KillPointError);
  faulttest::FaultTestInit(faulttest::FaultConfig{});
  EXPECT_FALSE(fs::exists(dir / "manifest.txt"));
  EXPECT_FALSE(fs::exists(dir / "console.log"));
  try {
    (void)study::DatasetSource{dir}.load();
    ADD_FAILURE() << "an interrupted rewrite loaded";
  } catch (const IngestError& error) {
    EXPECT_TRUE(error.code() == TriageCode::kCkptIncomplete ||
                error.code() == TriageCode::kOrphanTmp)
        << ingest::code_name(error.code());
  }
  // Rerunning the writer converges to the uninterrupted bytes.
  rewrite(dir);
  const auto diff = study::first_dir_difference(dir, scratch_root() / "interrupted_reference");
  EXPECT_FALSE(diff.has_value()) << *diff;
}

}  // namespace
}  // namespace titan
