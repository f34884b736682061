// The paper's shape checks as a ctest gate.  Every entry of the paper
// module (the same functions bench_paper prints) runs against one
// simulated default study, at pool widths 1 and 4, and every check must
// pass.  The census pins how many checks run, so a check dropped from an
// entry fails here instead of silently disappearing.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "paper/paper.hpp"
#include "par/pool.hpp"

namespace {

using namespace titan;

/// Checks across every entry: 97 from the entries that read the default
/// study (plus Tables 1-2 and Fig. 1), 7 from the ablation.
constexpr std::size_t kCheckCensus = 104;
constexpr std::size_t kAblationChecks = 7;

/// One simulated study shared by every test in this process.
const paper::PaperInputs& inputs() {
  static const paper::PaperInputs in;
  return in;
}

struct EntryRun {
  std::string text;
  std::vector<paper::CheckRecord> records;
};

EntryRun run_entry(const paper::Entry& entry) {
  paper::Checks checks{entry.id};
  testing::internal::CaptureStdout();
  entry.fn(inputs(), checks);
  return EntryRun{testing::internal::GetCapturedStdout(), checks.records()};
}

void expect_all_passed(const std::vector<paper::CheckRecord>& records) {
  for (const auto& record : records) {
    SCOPED_TRACE(record.id + ": " + record.name);
    EXPECT_TRUE(record.ok);
  }
}

TEST(PaperShapes, EveryCheckPassesAtWidthsOneAndFour) {
  auto& pool = par::ThreadPool::instance();
  const std::size_t restore = pool.threads();
  std::size_t census = 0;
  for (const auto& entry : paper::entries()) {
    if (entry.id == "ablation") continue;
    const std::string id{entry.id};
    pool.resize(1);
    const auto narrow = run_entry(entry);
    pool.resize(4);
    const auto wide = run_entry(entry);
    expect_all_passed(narrow.records);
    expect_all_passed(wide.records);
    EXPECT_EQ(narrow.text, wide.text) << id << ": output differs between widths 1 and 4";
    EXPECT_EQ(narrow.records.size(), wide.records.size()) << id;
    EXPECT_FALSE(narrow.records.empty()) << id << ": entry evaluated no check";
    census += narrow.records.size();
  }
  pool.resize(restore);
  EXPECT_EQ(census, kCheckCensus - kAblationChecks);
}

TEST(PaperShapes, AblationChecksPass) {
  const auto* entry = paper::find_entry("ablation");
  ASSERT_NE(entry, nullptr);
  const auto run = run_entry(*entry);
  expect_all_passed(run.records);
  EXPECT_EQ(run.records.size(), kAblationChecks);
}

TEST(PaperShapes, IdsAreTheOldBinaryNames) {
  std::vector<std::string> ids;
  for (const auto& entry : paper::entries()) ids.emplace_back(entry.id);
  const std::vector<std::string> expected{
      "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
      "fig07",  "fig08",  "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
      "fig15",  "fig16",  "fig17", "fig18", "fig19", "fig20", "fig21", "obs2",
      "ext_checkpoint", "ext_prediction", "ext_temporal_locality", "ext_interruption",
      "ablation"};
  EXPECT_EQ(ids, expected);
  EXPECT_EQ(paper::find_entry("fig22"), nullptr);
}

}  // namespace
