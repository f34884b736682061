#include "analysis/xid_matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

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
  // matrix), replacing the per-event unordered_map probes.
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

  // `seen` reset is O(1) per outer event: a slot counts as set only when
  // stamped with the current outer index.
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
  return FollowMatrix{std::vector<xid::ErrorKind>(kinds_of_interest.begin(),
                                                  kinds_of_interest.end()),
                      std::move(followed)};
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
