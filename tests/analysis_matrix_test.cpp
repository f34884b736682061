#include "analysis/xid_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

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

/// Test oracle: the forward-window scan follow_matrix replaced.  For each
/// row of a matrix kind it scans forward until the first row at or past
/// t + window, marking each matrix kind met.  O(rows x window).
FollowMatrix forward_scan_follow_matrix(const EventFrame& frame,
                                        std::span<const ErrorKind> kinds_of_interest,
                                        double window_s, bool include_same_type) {
  const std::size_t n = kinds_of_interest.size();
  constexpr std::size_t kNotOfInterest = static_cast<std::size_t>(-1);
  std::array<std::size_t, xid::kErrorKindCount> kind_index;
  kind_index.fill(kNotOfInterest);
  for (std::size_t i = 0; i < n; ++i) {
    kind_index[static_cast<std::size_t>(kinds_of_interest[i])] = i;
  }

  stats::Grid2D followed{std::max<std::size_t>(n, 1), std::max<std::size_t>(n, 1)};
  std::vector<std::uint64_t> occurrences(n, 0);
  const auto window = static_cast<stats::TimeSec>(std::llround(window_s));
  const auto times = frame.times();
  const auto kinds = frame.kinds();
  std::vector<std::size_t> seen_stamp(n, kNotOfInterest);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::size_t a = kind_index[static_cast<std::size_t>(kinds[i])];
    if (a == kNotOfInterest) continue;
    ++occurrences[a];
    for (std::size_t j = i + 1; j < frame.size(); ++j) {
      if (times[j] - times[i] >= window) break;
      const std::size_t b = kind_index[static_cast<std::size_t>(kinds[j])];
      if (b == kNotOfInterest) continue;
      if (!include_same_type && b == a) continue;
      if (seen_stamp[b] != i) {
        seen_stamp[b] = i;
        followed.add(a, b);
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      followed.at(a, b) =
          occurrences[a] > 0 ? followed.at(a, b) / static_cast<double>(occurrences[a]) : 0.0;
    }
  }
  return FollowMatrix{std::vector<ErrorKind>(kinds_of_interest.begin(), kinds_of_interest.end()),
                      std::move(followed)};
}

/// The sweep must equal the oracle bit for bit, for both flags and for
/// windows from empty to wider than any test stream.
void expect_matches_oracle(const std::vector<ParsedEvent>& events,
                           const std::vector<ErrorKind>& kinds) {
  const auto frame = EventFrame::build(events);
  for (const double window : {0.0, 1.0, 300.0, 86400.0}) {
    for (const bool same : {true, false}) {
      const auto got = follow_matrix(frame, kinds, window, same);
      const auto want = forward_scan_follow_matrix(frame, kinds, window, same);
      ASSERT_EQ(got.kinds, want.kinds);
      ASSERT_EQ(got.fractions.rows(), want.fractions.rows());
      const auto g = got.fractions.data();
      const auto w = want.fractions.data();
      ASSERT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()))
          << "window " << window << " include_same_type " << same << " rows "
          << events.size();
    }
  }
}

const std::vector<ErrorKind> kPair{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};

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

TEST(FollowMatrix, DuplicateKindThrows) {
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kOffTheBus,
                                     ErrorKind::kDoubleBitError};
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                  ev(1, ErrorKind::kDoubleBitError)};
  EXPECT_THROW((void)follow_matrix(EventFrame::build(events), kinds, 300.0, true),
               std::invalid_argument);
  EXPECT_THROW((void)follow_matrix(EventFrame{}, kinds, 300.0, false), std::invalid_argument);
}

TEST(FollowMatrixOracle, SameTimestampBursts) {
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 6; ++i) events.push_back(ev(100, ErrorKind::kDoubleBitError));
  for (int i = 0; i < 3; ++i) events.push_back(ev(100, ErrorKind::kPreemptiveCleanup));
  events.push_back(ev(100, ErrorKind::kDoubleBitError));
  for (int i = 0; i < 4; ++i) events.push_back(ev(5000, ErrorKind::kPreemptiveCleanup));
  expect_matches_oracle(events, kPair);
}

TEST(FollowMatrixOracle, GapsAroundTheWindowEdge) {
  for (const stats::TimeSec gap : {299, 300, 301}) {
    std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                    ev(gap, ErrorKind::kPreemptiveCleanup),
                                    ev(2 * gap, ErrorKind::kDoubleBitError),
                                    ev(2 * gap, ErrorKind::kDoubleBitError),
                                    ev(3 * gap, ErrorKind::kDoubleBitError)};
    expect_matches_oracle(events, kPair);
  }
}

TEST(FollowMatrixOracle, KindsOutsideTheMatrix) {
  // An out-of-matrix row past the window still ends the forward scan.
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError), ev(1, ErrorKind::kOffTheBus),
                                  ev(400, ErrorKind::kOffTheBus),
                                  ev(2, ErrorKind::kPreemptiveCleanup),
                                  ev(3, ErrorKind::kOffTheBus)};
  expect_matches_oracle(events, kPair);
  const auto m = follow_matrix(EventFrame::build(events), kPair, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 0.0);
}

TEST(FollowMatrixOracle, EmptyAndSingleEventFrames) {
  expect_matches_oracle({}, kPair);
  expect_matches_oracle({}, {});
  expect_matches_oracle({ev(7, ErrorKind::kDoubleBitError)}, kPair);
  expect_matches_oracle({ev(7, ErrorKind::kOffTheBus)}, kPair);
  expect_matches_oracle({ev(7, ErrorKind::kDoubleBitError)}, {});
}

TEST(FollowMatrixOracle, RowsNotTimeSorted) {
  // A later row with an earlier time is in window (negative gap); one
  // far-future row between an event and its follower hides the follower.
  std::vector<ParsedEvent> events{
      ev(1000, ErrorKind::kDoubleBitError),   ev(10, ErrorKind::kPreemptiveCleanup),
      ev(5000, ErrorKind::kOffTheBus),        ev(1001, ErrorKind::kDoubleBitError),
      ev(1002, ErrorKind::kPreemptiveCleanup), ev(0, ErrorKind::kDoubleBitError),
      ev(3, ErrorKind::kPreemptiveCleanup)};
  expect_matches_oracle(events, kPair);
}

TEST(FollowMatrixOracle, SeededRandomStreams) {
  const std::vector<ErrorKind> fig13 = fig13_kinds();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    stats::Rng rng{seed};
    // A random subset of the Fig. 13 kinds, in random order.
    std::vector<ErrorKind> kinds;
    for (const auto k : fig13) {
      if (rng.bernoulli(0.6)) kinds.push_back(k);
    }
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }
    // Bursts, gaps straddling 300 s, long quiet spells, and (every
    // fourth seed) rows shuffled out of time order.
    std::vector<ParsedEvent> events(rng.below(600));
    stats::TimeSec t = 0;
    for (auto& e : events) {
      constexpr std::array<stats::TimeSec, 6> kGaps{0, 1, 299, 300, 301, 5000};
      t += rng.bernoulli(0.5) ? kGaps[rng.below(kGaps.size())]
                              : static_cast<stats::TimeSec>(rng.below(400));
      e = ev(t, static_cast<ErrorKind>(rng.below(xid::kErrorKindCount)));
    }
    if (seed % 4 == 0) {
      for (std::size_t i = events.size(); i > 1; --i) {
        std::swap(events[i - 1], events[rng.below(i)]);
      }
    }
    expect_matches_oracle(events, kinds);
    expect_matches_oracle(events, fig13);
  }
}

}  // namespace
}  // namespace titan::analysis
