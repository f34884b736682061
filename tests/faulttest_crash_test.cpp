// The crash-consistency headline proof, test-sized: every kill point of
// each dataset writer is visited with a RunLength kill and the outcome
// must be clean salvage (the directory still loads byte-identically) or
// a *named* triage failure -- never silent corruption -- and resuming
// (or rerunning) the writer must converge to the uninterrupted bytes.
// The bench variant (bench_faulttest_crash) runs the bigger sharded
// campaign; here the sweeps stay quick_config-sized.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/facility.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "study/crashtest.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using faulttest::FaultConfig;
using faulttest::FaultMode;
using faulttest::FaultTestInit;

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

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_faulttest_crash_" + std::to_string(::getpid()));
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

bool site_seen(const study::SweepResult& sweep, std::string_view site) {
  for (const auto& s : sweep.sites) {
    if (s.site == site) return true;
  }
  return false;
}

void expect_census_covers_sweep(const study::SweepResult& sweep) {
  // Sweep count == site census count: every hit the reference run
  // counted was killed exactly once.
  EXPECT_EQ(sweep.kills.size(), sweep.total_points);
  std::uint64_t census = 0;
  for (const auto& s : sweep.sites) census += s.hits;
  EXPECT_EQ(census, sweep.total_points) << "per-site hits must sum to the total";
}

TEST(FaultTestCrash, ShardedSweepIsSalvageOrNamedNeverSilent) {
  const auto config = core::quick_config(kSeed);
  const auto sweep = study::run_runlength_sweep(
      [&](const fs::path& dir) { study::generate_sharded_dataset(config, 2, dir); },
      [&](const fs::path& dir) {
        study::generate_sharded_dataset(config, 2, dir, /*resume=*/true);
      },
      scratch_root() / "sharded_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census_covers_sweep(sweep);
  EXPECT_GT(sweep.total_points, 20U) << sweep.summary_text();

  // The sweep must have walked every durable-state transition layer.
  for (const auto site :
       {"ckpt/pre-save", "io/atomic/pre-tmp", "io/atomic/post-tmp",
        "io/atomic/pre-rename", "io/atomic/post-rename", "tdf/pre-write",
        "study/dataset/artifact", "study/dataset/checkpoint",
        "study/dataset/pre-manifest", "study/dataset/committed"}) {
    EXPECT_TRUE(site_seen(sweep, site)) << site << "\n" << sweep.summary_text();
  }
  // And the named-failure taxonomy must actually fire: a mid-write kill
  // leaves ckpt-without-manifest state, a post-tmp kill leaves an orphan.
  EXPECT_GT(sweep.code_counts.count("E_CKPT_INCOMPLETE"), 0U) << sweep.summary_text();
  EXPECT_GT(sweep.code_counts.count("E_ORPHAN_TMP"), 0U) << sweep.summary_text();
}

TEST(FaultTestCrash, MonolithicTextSweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kText);
  };
  // The monolithic writer "resumes" by rerunning: every artifact is
  // rewritten idempotently over the crash state.
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "text_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census_covers_sweep(sweep);
  EXPECT_TRUE(site_seen(sweep, "study/dataset/artifact")) << sweep.summary_text();
  EXPECT_TRUE(site_seen(sweep, "study/dataset/committed")) << sweep.summary_text();
}

TEST(FaultTestCrash, MonolithicBinarySweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  };
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "binary_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census_covers_sweep(sweep);
  // The TDF encode pipeline's own kill points must be on the walked path.
  EXPECT_TRUE(site_seen(sweep, "tdf/segments-encoded")) << sweep.summary_text();
  EXPECT_TRUE(site_seen(sweep, "tdf/pre-write")) << sweep.summary_text();
}

TEST(FaultTestCrash, ReshardSweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_sharded_dataset(context, dir, 2);
  };
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "reshard_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census_covers_sweep(sweep);
  // The re-sharding loop walks the shared protocol: one container sealer
  // per shard, the manifest last, no per-shard checkpoint.
  for (const auto site : {"ckpt/pre-save", "tdf/pre-write", "study/dataset/artifact",
                          "study/dataset/pre-manifest", "study/dataset/committed"}) {
    EXPECT_TRUE(site_seen(sweep, site)) << site << "\n" << sweep.summary_text();
  }
  EXPECT_FALSE(site_seen(sweep, "study/dataset/checkpoint")) << sweep.summary_text();
  EXPECT_GT(sweep.code_counts.count("E_CKPT_INCOMPLETE"), 0U) << sweep.summary_text();
}

TEST(FaultTestCrash, InterruptedResumeIsByteIdenticalAcrossShardsAndWidths) {
  const auto config = core::quick_config(kSeed);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{5}}) {
    // Kill-free reference (width 1), counting the run's kill points.
    const auto reference =
        scratch_root() / ("resume_ref_" + std::to_string(shards));
    fs::remove_all(reference);
    FaultTestInit(FaultConfig{});
    {
      const ThreadsGuard guard{1};
      study::generate_sharded_dataset(config, shards, reference);
    }
    const auto total = faulttest::fault_test_report().total_hits;
    ASSERT_GT(total, 2U);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const ThreadsGuard guard{threads};
      const auto dir = scratch_root() / ("resume_" + std::to_string(shards) + "_" +
                                         std::to_string(threads));
      fs::remove_all(dir);
      // Kill mid-run (after some shards sealed, before the manifest),
      // then resume at this width: the finished directory must be
      // byte-identical to the width-1 uninterrupted reference.
      FaultConfig kill;
      kill.mode = FaultMode::kRunLength;
      kill.run_length = total / 2;
      FaultTestInit(kill);
      EXPECT_THROW(study::generate_sharded_dataset(config, shards, dir),
                   faulttest::KillPointError);
      FaultTestInit(FaultConfig{});
      study::generate_sharded_dataset(config, shards, dir, /*resume=*/true);
      const auto diff = study::first_dir_difference(dir, reference);
      EXPECT_FALSE(diff.has_value())
          << shards << " shards, " << threads << " threads: " << *diff;
    }
  }
  FaultTestInit(FaultConfig{});
}

TEST(FaultTestCrash, ResumeOfACommittedDirectoryIsANoOp) {
  const auto config = core::quick_config(kSeed);
  const auto dir = scratch_root() / "committed_noop";
  const auto stats = study::generate_sharded_dataset(config, 2, dir);
  const auto again = study::generate_sharded_dataset(config, 2, dir, /*resume=*/true);
  EXPECT_EQ(again.shards, stats.shards);
  const auto reference = scratch_root() / "committed_noop_ref";
  study::generate_sharded_dataset(config, 2, reference);
  EXPECT_TRUE(study::dirs_identical(dir, reference));
}

}  // namespace
}  // namespace titan
