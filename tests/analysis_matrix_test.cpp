#include "analysis/xid_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace titan::analysis {
namespace {

using parse::ParsedEvent;
using xid::ErrorKind;

ParsedEvent ev(stats::TimeSec t, ErrorKind kind) {
  ParsedEvent e;
  e.time = t;
  e.node = 3;
  e.kind = kind;
  return e;
}

TEST(FollowMatrix, DetectsFollowingPairs) {
  // Every DBE followed by a cleanup within 60 s; cleanups never followed.
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(i * 10000, ErrorKind::kDoubleBitError));
    events.push_back(ev(i * 10000 + 60, ErrorKind::kPreemptiveCleanup));
  }
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kPreemptiveCleanup, ErrorKind::kDoubleBitError), 0.0);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kDoubleBitError), 0.0);
}

TEST(FollowMatrix, WindowBoundaryExclusive) {
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                  ev(300, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 0.0);
}

TEST(FollowMatrix, DiagonalCapturesBursts) {
  // Five XID 13s in a burst: all but the last see a same-type follower.
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 5; ++i) events.push_back(ev(i, ErrorKind::kGraphicsEngineException));
  const std::vector<ErrorKind> kinds{ErrorKind::kGraphicsEngineException};
  const auto with_same = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(
      with_same.at(ErrorKind::kGraphicsEngineException, ErrorKind::kGraphicsEngineException),
      0.8);
  const auto without_same = follow_matrix(EventFrame::build(events), kinds, 300.0, false);
  EXPECT_DOUBLE_EQ(
      without_same.at(ErrorKind::kGraphicsEngineException, ErrorKind::kGraphicsEngineException),
      0.0);
}

TEST(FollowMatrix, MultipleFollowersCountOnce) {
  // One DBE followed by three cleanups: fraction is still 1.0 (at least
  // one follower), not 3.0.
  std::vector<ParsedEvent> events{
      ev(0, ErrorKind::kDoubleBitError), ev(1, ErrorKind::kPreemptiveCleanup),
      ev(2, ErrorKind::kPreemptiveCleanup), ev(3, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
}

TEST(FollowMatrix, KindsOutsideInterestIgnored) {
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                  ev(1, ErrorKind::kOffTheBus),
                                  ev(2, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  EXPECT_THROW((void)m.at(ErrorKind::kOffTheBus, ErrorKind::kDoubleBitError),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
}

TEST(FollowMatrix, Fig13KindsCoverPaperAxes) {
  const auto kinds = fig13_kinds();
  EXPECT_EQ(kinds.size(), 12U);
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), ErrorKind::kOffTheBus) != kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), ErrorKind::kDoubleBitError) != kinds.end());
}

TEST(FollowMatrix, IsolatedKindsHaveEmptyDiagonal) {
  std::vector<ParsedEvent> events;
  // Bursty 13s; isolated solitary OTBs.
  for (int i = 0; i < 4; ++i) events.push_back(ev(i, ErrorKind::kGraphicsEngineException));
  events.push_back(ev(100000, ErrorKind::kOffTheBus));
  events.push_back(ev(200000, ErrorKind::kOffTheBus));
  const std::vector<ErrorKind> kinds{ErrorKind::kGraphicsEngineException, ErrorKind::kOffTheBus};
  const auto m = follow_matrix(EventFrame::build(events), kinds, 300.0, true);
  const auto isolated = isolated_kinds(m);
  ASSERT_EQ(isolated.size(), 1U);
  EXPECT_EQ(isolated[0], ErrorKind::kOffTheBus);
}

TEST(FollowMatrix, LabelsMatchTokens) {
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kOffTheBus};
  const auto m = follow_matrix(EventFrame{}, kinds, 300.0, true);
  EXPECT_EQ(m.labels(), (std::vector<std::string>{"DBE", "OTB"}));
}

}  // namespace
}  // namespace titan::analysis
