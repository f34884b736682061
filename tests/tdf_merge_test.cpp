// The container merge (tdf::merge_event_streams), which copies each run
// of rows that sorts before every other reader's head in one bulk insert,
// against the per-row heap merge it replaced, kept here as a test-only
// oracle.  Every case compares all four columns for exact equality,
// across window sizes small enough that runs cross window boundaries.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <queue>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestPolicy;
using ingest::IngestReport;
using Shard = std::vector<stats::TimeSec>;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() / ("titanrel_tdf_merge_" + std::to_string(::getpid()));
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

/// One container per shard.  Node ids encode provenance (shard s, row i
/// -> s * 1000 + i), and kinds and structures vary by row, so every
/// column shows which row landed where.
std::vector<fs::path> write_shards(const std::string& name, const std::vector<Shard>& shards) {
  const auto dir = scratch_root() / name;
  fs::create_directories(dir);
  std::vector<fs::path> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    tdf::TdfDataset data;
    data.period_begin = 0;
    data.period_end = 1000000;
    for (std::size_t i = 0; i < shards[s].size(); ++i) {
      data.times.push_back(shards[s][i]);
      data.nodes.push_back(static_cast<topology::NodeId>(s * 1000 + i % 1000));
      data.kinds.push_back((s + i) % 3 == 0 ? xid::ErrorKind::kDoubleBitError
                                            : xid::ErrorKind::kOffTheBus);
      data.structures.push_back(i % 2 == 0 ? xid::MemoryStructure::kDeviceMemory
                                           : xid::MemoryStructure::kNone);
    }
    paths.push_back(dir / tdf::shard_file_name(s));
    tdf::write_tdf(data, paths.back());
  }
  return paths;
}

std::vector<tdf::SegmentReader> open_all(const std::vector<fs::path>& paths,
                                         IngestReport& report, std::size_t window_rows) {
  std::vector<tdf::SegmentReader> readers;
  for (const auto& path : paths) readers.emplace_back(path, IngestPolicy::kStrict, report,
                                                      window_rows);
  return readers;
}

/// The oracle: pop the (time, reader) minimum head, emit one row, push
/// that reader's next head.
tdf::EventWindow per_row_merge(std::span<tdf::SegmentReader> readers) {
  struct Cursor {
    tdf::EventWindow window;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cursors(readers.size());
  const auto ready = [&](std::size_t s) -> bool {
    auto& cur = cursors[s];
    if (cur.pos < cur.window.size()) return true;
    cur.pos = 0;
    return readers[s].next_window(cur.window) > 0;
  };
  struct Head {
    stats::TimeSec time = 0;
    std::uint32_t shard = 0;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap{later};
  for (std::size_t s = 0; s < readers.size(); ++s) {
    if (ready(s)) heap.push(Head{cursors[s].window.times[0], static_cast<std::uint32_t>(s)});
  }
  tdf::EventWindow out;
  while (!heap.empty()) {
    const Head top = heap.top();
    heap.pop();
    auto& cur = cursors[top.shard];
    out.times.push_back(cur.window.times[cur.pos]);
    out.nodes.push_back(cur.window.nodes[cur.pos]);
    out.kinds.push_back(cur.window.kinds[cur.pos]);
    out.structures.push_back(cur.window.structures[cur.pos]);
    ++cur.pos;
    if (ready(top.shard)) heap.push(Head{cur.window.times[cur.pos], top.shard});
  }
  return out;
}

void expect_matches_oracle(const std::string& name, const std::vector<Shard>& shards) {
  const auto paths = write_shards(name, shards);
  std::size_t rows = 0;
  for (const auto& shard : shards) rows += shard.size();
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                   std::size_t{7}, tdf::kTdfStreamWindowRows}) {
    IngestReport report{IngestPolicy::kStrict};
    auto merged_readers = open_all(paths, report, window);
    auto oracle_readers = open_all(paths, report, window);
    const auto merged = tdf::merge_event_streams(merged_readers);
    const auto oracle = per_row_merge(oracle_readers);
    ASSERT_EQ(merged.size(), rows) << name << " window " << window;
    EXPECT_EQ(merged.times, oracle.times) << name << " window " << window;
    EXPECT_EQ(merged.nodes, oracle.nodes) << name << " window " << window;
    EXPECT_EQ(merged.kinds, oracle.kinds) << name << " window " << window;
    EXPECT_EQ(merged.structures, oracle.structures) << name << " window " << window;
    for (const auto& reader : merged_readers) {
      EXPECT_EQ(reader.rows_decoded(), reader.event_count()) << name;
    }
  }
}

TEST(TdfMerge, EqualTimestampsAcrossShards) {
  expect_matches_oracle("ties", {{5, 5, 5, 7, 7}, {5, 5, 7}, {5, 7, 7, 7}, {7}});
}

TEST(TdfMerge, EmptyShards) {
  expect_matches_oracle("empty_mixed", {{}, {1, 2, 3, 9}, {}, {2, 3, 3}, {}});
  expect_matches_oracle("empty_all", {{}, {}});
}

TEST(TdfMerge, RunsCrossWindowBoundaries) {
  // Long one-shard runs (every window size above splits them) broken by
  // short excursions into the other shard.
  Shard a;
  Shard b;
  for (stats::TimeSec t = 0; t < 60; ++t) a.push_back(t);
  for (stats::TimeSec t = 60; t < 120; ++t) b.push_back(t);
  b.insert(b.begin(), {10, 10, 31});
  std::sort(b.begin(), b.end());
  expect_matches_oracle("long_runs", {a, b});
}

TEST(TdfMerge, SingleContainer) {
  expect_matches_oracle("single", {{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}});
}

TEST(TdfMerge, ShardWithDecreasingTimes) {
  // Signed time deltas let a container hold a non-monotonic stream; the
  // bulk merge must still emit rows exactly where the per-row merge does.
  expect_matches_oracle("decreasing", {{10, 9, 8, 20, 1, 1, 30}, {5, 6, 15, 2}, {8, 8}});
}

TEST(TdfMerge, ArithmeticShardSets) {
  // Deterministic pseudo-random shard sets: 1..6 shards, mostly sorted
  // with occasional backward steps and many shared timestamps.
  for (std::size_t shard_count = 1; shard_count <= 6; ++shard_count) {
    std::vector<Shard> shards(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      stats::TimeSec t = 100 + static_cast<stats::TimeSec>(s % 3);
      const std::size_t length = (s * 37 + shard_count * 11) % 50;
      for (std::size_t i = 0; i < length; ++i) {
        const auto step = static_cast<stats::TimeSec>((i * 2654435761U + s) % 7);
        t += (i % 11 == 10) ? -step : step / 2;
        shards[s].push_back(t);
      }
    }
    expect_matches_oracle("arith_" + std::to_string(shard_count), shards);
  }
}

}  // namespace
}  // namespace titan
