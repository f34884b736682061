// Read compatibility: a small monolithic dataset.tdf directory written by
// an earlier build's write_dataset(kBinary), committed with the study
// reports that build rendered from it.  Today's loader must reproduce
// both reports byte for byte, and today's writer must write the loaded
// context back to the same bytes.
//
// The fixture (tests/fixtures/tdf_readcompat) holds a stride sample of
// 1,500 events, 200 job records and 200 nvidia-smi records of the
// quick_config(7) study; report.<policy>.{txt,json} are
// AnalysisRegistry::standard().run_all over its strict and salvage loads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestPolicy;

const fs::path kFixture = TITANREL_FIXTURE_DIR;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir =
        fs::temp_directory_path() / ("titanrel_tdf_readcompat_" + std::to_string(::getpid()));
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

/// A private copy of the committed dataset (a salvage load may set files
/// aside; the source tree stays untouched).
fs::path fixture_copy(const std::string& name) {
  const auto dir = scratch_root() / name;
  fs::remove_all(dir);
  fs::copy(kFixture / "dataset", dir, fs::copy_options::recursive);
  return dir;
}

TEST(TdfReadCompat, ReportsMatchTheCommittedOnesUnderBothPolicies) {
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    const std::string tag = policy == IngestPolicy::kStrict ? "strict" : "salvage";
    const auto context = study::DatasetSource{fixture_copy(tag), policy}.load();
    EXPECT_TRUE(context.load_stats.binary) << tag;
    EXPECT_EQ(context.load_stats.shards, 0U) << tag;
    EXPECT_EQ(context.events.size(), 1500U) << tag;
    const auto report = study::AnalysisRegistry::standard().run_all(context);
    EXPECT_EQ(report.text(), study::read_all(kFixture / ("report." + tag + ".txt"))) << tag;
    EXPECT_EQ(report.json(), study::read_all(kFixture / ("report." + tag + ".json"))) << tag;
  }
}

TEST(TdfReadCompat, RewritingTheLoadedContextReproducesTheFixtureBytes) {
  const auto context = study::DatasetSource{fixture_copy("rewrite_src")}.load();
  const auto dir = scratch_root() / "rewrite_dst";
  study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  for (const char* name : {"dataset.tdf", "manifest.txt"}) {
    EXPECT_EQ(study::read_all(dir / name), study::read_all(kFixture / "dataset" / name)) << name;
  }
  EXPECT_FALSE(fs::exists(dir / "study.ckpt"));
}

}  // namespace
}  // namespace titan
