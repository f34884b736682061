#include "analysis/xid_matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace titan::analysis {

double FollowMatrix::at(xid::ErrorKind a, xid::ErrorKind b) const {
  const auto find = [&](xid::ErrorKind k) -> std::size_t {
    const auto it = std::find(kinds.begin(), kinds.end(), k);
    if (it == kinds.end()) throw std::invalid_argument{"FollowMatrix: kind not in matrix"};
    return static_cast<std::size_t>(it - kinds.begin());
  };
  return fractions.at(find(a), find(b));
}

std::vector<std::string> FollowMatrix::labels() const {
  std::vector<std::string> out;
  out.reserve(kinds.size());
  for (const auto k : kinds) out.emplace_back(xid::token(k));
  return out;
}

FollowMatrix follow_matrix(const EventFrame& frame,
                           std::span<const xid::ErrorKind> kinds_of_interest, double window_s,
                           bool include_same_type) {
  const std::size_t n = kinds_of_interest.size();
  // Flat ErrorKind -> matrix-index table (npos marks kinds outside the
  // matrix).  A kind listed twice would make the table and
  // FollowMatrix::at disagree on its row, so it is rejected.
  constexpr std::size_t kNotOfInterest = static_cast<std::size_t>(-1);
  std::array<std::size_t, xid::kErrorKindCount> kind_index;
  kind_index.fill(kNotOfInterest);
  for (std::size_t i = 0; i < n; ++i) {
    auto& slot = kind_index[static_cast<std::size_t>(kinds_of_interest[i])];
    if (slot != kNotOfInterest) throw std::invalid_argument{"follow_matrix: kind listed twice"};
    slot = i;
  }

  const auto window = static_cast<stats::TimeSec>(std::llround(window_s));
  const auto times = frame.times();
  const auto kinds = frame.kinds();

  // One backward sweep, O(rows x kinds).  The forward definition scans
  // from row i until the first row at or past t_i + window, so row i has
  // a follower of kind b exactly when every row from i+1 up to the next
  // kind-b row is in window -- i.e. when the largest of those times is.
  // For each matrix kind b the sweep keeps `ahead[b]` (a kind-b row lies
  // below the cursor) and `reach[b]` (the largest time over the rows
  // from below the cursor through that nearest kind-b row).  Every row
  // raises each reach, so the test holds for rows in any time order.
  std::vector<std::uint64_t> followed(n * n, 0);
  std::vector<std::uint64_t> occurrences(n, 0);
  std::vector<stats::TimeSec> reach(n, 0);
  std::vector<std::uint8_t> ahead(n, 0);
  for (std::size_t i = frame.size(); i-- > 0;) {
    const stats::TimeSec t = times[i];
    const std::size_t a = kind_index[static_cast<std::size_t>(kinds[i])];
    if (a != kNotOfInterest) {
      ++occurrences[a];
      std::uint64_t* row = followed.data() + a * n;
      for (std::size_t b = 0; b < n; ++b) {
        if (ahead[b] != 0 && reach[b] - t < window) ++row[b];
      }
    }
    for (std::size_t b = 0; b < n; ++b) reach[b] = std::max(reach[b], t);
    if (a != kNotOfInterest) {
      reach[a] = t;
      ahead[a] = 1;
    }
  }

  // Excluding same-type followers only drops the diagonal: a skipped
  // same-kind row never ends the forward scan.
  stats::Grid2D fractions{std::max<std::size_t>(n, 1), std::max<std::size_t>(n, 1)};
  for (std::size_t a = 0; a < n; ++a) {
    if (occurrences[a] == 0) continue;
    for (std::size_t b = 0; b < n; ++b) {
      if (!include_same_type && b == a) continue;
      fractions.at(a, b) =
          static_cast<double>(followed[a * n + b]) / static_cast<double>(occurrences[a]);
    }
  }
  return FollowMatrix{std::vector<xid::ErrorKind>(kinds_of_interest.begin(),
                                                  kinds_of_interest.end()),
                      std::move(fractions)};
}

std::vector<xid::ErrorKind> fig13_kinds() {
  using xid::ErrorKind;
  return {ErrorKind::kGraphicsEngineException, ErrorKind::kMemoryPageFault,
          ErrorKind::kCorruptedPushBuffer,     ErrorKind::kDriverFirmware,
          ErrorKind::kGpuStoppedProcessing,    ErrorKind::kCtxSwitchFault,
          ErrorKind::kPreemptiveCleanup,       ErrorKind::kDoubleBitError,
          ErrorKind::kUcHaltOldDriver,         ErrorKind::kUcHaltNewDriver,
          ErrorKind::kPageRetirement,          ErrorKind::kOffTheBus};
}

std::vector<xid::ErrorKind> isolated_kinds(const FollowMatrix& matrix, double threshold) {
  std::vector<xid::ErrorKind> out;
  for (std::size_t i = 0; i < matrix.kinds.size(); ++i) {
    if (matrix.fractions.at(i, i) <= threshold) out.push_back(matrix.kinds[i]);
  }
  return out;
}

}  // namespace titan::analysis
