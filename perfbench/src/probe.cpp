#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEntries = std::size_t{16} << 20;  // 64 MiB of uint32
constexpr int kChaseSteps = 20000;
constexpr std::size_t kSweepStride = 16;                 // one 64-byte line per load
constexpr std::size_t kSweepLoads = std::size_t{1} << 17;
constexpr std::uint64_t kAluSteps = 200000;

}  // namespace

Probe::Probe() : next_(kEntries) {
  // Sattolo's algorithm: a random permutation that is one cycle, so the
  // chase visits the whole working set.  A fixed xorshift keeps it the
  // same on every run.
  std::iota(next_.begin(), next_.end(), std::uint32_t{0});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

double Probe::once() {
  const auto start = std::chrono::steady_clock::now();
  std::uint32_t p = at_;
  for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
  std::uint64_t s = 0;
  const std::size_t base = static_cast<std::size_t>(p) % (kEntries - kSweepLoads * kSweepStride);
  for (std::size_t i = 0; i < kSweepLoads; ++i) s += next_[base + i * kSweepStride];
  for (std::uint64_t i = 0; i < kAluSteps; ++i) s += (i * i) ^ (s >> 3);
  at_ = p;
  sink_ += s;
  return seconds_since(start);
}

}  // namespace perfbench
