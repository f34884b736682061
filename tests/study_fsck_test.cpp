// Crash-state detection at the dataset boundary: the read-only fsck
// report (titan-convert --fsck) and the loader's crash gate.  A clean
// dataset reports clean with a byte-stable report; orphan tmp files,
// a checkpoint outliving its run, a hole in the shard roster, a
// container the manifest does not claim and a checksum divergence each
// surface as the right named finding.  The
// loader gate mirrors the taxonomy: orphan tmps quarantine under
// salvage (E_ORPHAN_TMP recorded) and throw under strict; a checkpoint
// without a manifest is fatal under BOTH policies (E_CKPT_INCOMPLETE --
// "salvaging" a half-written dataset would silently study a partial
// campaign).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "ckpt/study_ckpt.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::TriageCode;

constexpr std::uint64_t kSeed = 29;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir =
        fs::temp_directory_path() / ("titanrel_study_fsck_" + std::to_string(::getpid()));
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

/// A fresh copy of a committed sharded dataset to damage.
fs::path damaged_copy(const char* name, std::size_t shards = 3) {
  static const fs::path pristine = [] {
    const auto dir = scratch_root() / "pristine";
    study::generate_sharded_dataset(core::quick_config(kSeed), 3, dir);
    return dir;
  }();
  const auto dir = scratch_root() / name;
  fs::remove_all(dir);
  if (shards == 3) {
    fs::copy(pristine, dir, fs::copy_options::recursive);
  } else {
    study::generate_sharded_dataset(core::quick_config(kSeed), shards, dir);
  }
  return dir;
}

bool has_finding(const study::FsckResult& result, TriageCode code) {
  for (const auto& finding : result.findings) {
    if (finding.code == code) return true;
  }
  return false;
}

TEST(StudyFsck, CleanDatasetReportsCleanAndByteStable) {
  const auto dir = damaged_copy("clean");
  const auto result = study::fsck_dataset(dir);
  EXPECT_TRUE(result.clean()) << result.report_text();
  EXPECT_EQ(result.layout, "sharded");
  EXPECT_EQ(result.report_text(),
            "titanrel fsck\nlayout: sharded\nfindings: 0\nverdict: clean\n");
  // Read-only: fsck must not mutate the dataset it inspects.
  EXPECT_EQ(study::fsck_dataset(dir).report_text(), result.report_text());
}

TEST(StudyFsck, OrphanTmpIsNamed) {
  const auto dir = damaged_copy("orphan");
  study::write_text(dir / "manifest.txt.tmp", "half-written\n");
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kOrphanTmp)) << result.report_text();
  EXPECT_NE(result.report_text().find("manifest.txt.tmp E_ORPHAN_TMP"),
            std::string::npos)
      << result.report_text();
}

TEST(StudyFsck, MissingShardIsNamedPartialSet) {
  const auto dir = damaged_copy("hole");
  fs::remove(dir / tdf::shard_file_name(1));
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kPartialShardSet)) << result.report_text();
}

TEST(StudyFsck, ShardBeyondTheDeclaredCountIsNamed) {
  const auto dir = damaged_copy("extra");
  fs::copy_file(dir / tdf::shard_file_name(0), dir / tdf::shard_file_name(3));
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kPartialShardSet)) << result.report_text();
}

TEST(StudyFsck, ContainerTheManifestDoesNotClaimIsNamed) {
  // A seed-29 container copied in as the dataset.tdf of a committed
  // seed-31 text dataset: the layout is the claimed one, and the stray
  // container is a finding.
  const auto text_dir = scratch_root() / "unclaimed_text";
  const auto b = study::SimulatedSource{core::quick_config(31)}.load();
  study::write_dataset(b, text_dir, study::DatasetFormat::kText);
  const std::string stray{tdf::kTdfFileName};
  fs::copy_file(damaged_copy("unclaimed_source") / tdf::shard_file_name(0), text_dir / stray);
  auto result = study::fsck_dataset(text_dir);
  EXPECT_EQ(result.layout, "text");
  ASSERT_EQ(result.findings.size(), 1U) << result.report_text();
  EXPECT_EQ(result.findings[0].code, TriageCode::kUnclaimedContainer);
  EXPECT_EQ(result.findings[0].file, stray);

  // A stale dataset.tdf beside a claimed 3-shard set.
  const auto sharded = damaged_copy("unclaimed_beside_shards");
  fs::copy_file(text_dir / stray, sharded / stray);
  result = study::fsck_dataset(sharded);
  EXPECT_EQ(result.layout, "sharded");
  ASSERT_EQ(result.findings.size(), 1U) << result.report_text();
  EXPECT_EQ(result.findings[0].code, TriageCode::kUnclaimedContainer);
  EXPECT_EQ(result.findings[0].file, stray);
}

TEST(StudyFsck, CheckpointWithoutManifestIsNamedIncomplete) {
  const auto dir = damaged_copy("interrupted");
  fs::remove(dir / "manifest.txt");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kCkptIncomplete)) << result.report_text();
}

TEST(StudyFsck, CorruptShardBytesAreNamedChecksumMismatch) {
  const auto dir = damaged_copy("corrupt");
  auto bytes = study::read_all(dir / tdf::shard_file_name(0));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  study::write_text(dir / tdf::shard_file_name(0), bytes);
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kChecksumMismatch)) << result.report_text();
}

// ---------------------------------------------------------------------------
// The loader's crash gate (DatasetSource::load).
// ---------------------------------------------------------------------------

TEST(StudyCrashGate, OrphanTmpThrowsStrictAndQuarantinesSalvage) {
  const auto dir = damaged_copy("gate_orphan");
  study::write_text(dir / "console.log.tmp", "torn\n");

  try {
    (void)study::DatasetSource{dir, IngestPolicy::kStrict}.load();
    FAIL() << "strict load over crash evidence must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kOrphanTmp) << error.what();
    EXPECT_EQ(error.file(), "console.log.tmp");
  }
  EXPECT_TRUE(fs::exists(dir / "console.log.tmp")) << "strict must not mutate";

  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(TriageCode::kOrphanTmp), 1U);
  EXPECT_FALSE(fs::exists(dir / "console.log.tmp"));
  EXPECT_TRUE(fs::exists(dir / "console.log.tmp.quarantined"))
      << "salvage sets the evidence aside instead of deleting it";
}

TEST(StudyCrashGate, CheckpointWithoutManifestIsFatalUnderBothPolicies) {
  const auto dir = damaged_copy("gate_ckpt");
  fs::remove(dir / "manifest.txt");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "an interrupted write must not load as a dataset";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kCkptIncomplete) << error.what();
      EXPECT_NE(std::string{error.what()}.find("--resume"), std::string::npos)
          << "the message must point at the remedy";
    }
  }
}

TEST(StudyCrashGate, LingeringCheckpointBesideManifestIsIgnored) {
  const auto dir = damaged_copy("gate_lingering");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);

  // With the manifest committed the checkpoint is garbage, not damage:
  // both policies load, and the strict load carries no report at all.
  const auto strict = study::DatasetSource{dir, IngestPolicy::kStrict}.load();
  EXPECT_FALSE(strict.ingest_report.has_value());
  const auto salvage = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(salvage.ingest_report.has_value());
  EXPECT_EQ(salvage.ingest_report->count(TriageCode::kCkptIncomplete), 0U);
}

}  // namespace
}  // namespace titan
