#include "sched/allocator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace titan::sched {

namespace {

using topology::kGeminiCount;
using topology::kNodeSlots;
using topology::NodeId;

// Cage (0..2) hosting the Gemini at torus rank `rank`.
[[nodiscard]] int cage_of_rank(int rank) {
  return topology::coord_from_rank(rank).z / topology::kBladesPerCage;
}

}  // namespace

TorusAllocator::TorusAllocator(const std::vector<bool>& usable, PlacementPolicy policy) {
  if (usable.size() != static_cast<std::size_t>(kNodeSlots)) {
    throw std::invalid_argument{"TorusAllocator: usable mask must cover all node slots"};
  }
  // Search order: production walks plain torus-rank order over routers
  // with a usable node; the cool-cage policy visits lower cages first
  // (Observation 4 ablation).
  std::vector<int> order;
  for (int rank = 0; rank < kGeminiCount; ++rank) {
    const auto nodes = topology::gemini_nodes(topology::coord_from_rank(rank));
    if (usable[static_cast<std::size_t>(nodes[0])] || usable[static_cast<std::size_t>(nodes[1])]) {
      order.push_back(rank);
    }
  }
  if (policy == PlacementPolicy::kCoolCageFirst) {
    std::stable_sort(order.begin(), order.end(),
                     [](int a, int b) { return cage_of_rank(a) < cage_of_rank(b); });
  }

  rank_pos_.assign(static_cast<std::size_t>(kGeminiCount), kNoPosition);
  pos_rank_.reserve(order.size());
  pair_flags_.reserve(order.size());
  for (const int rank : order) {
    const auto nodes = topology::gemini_nodes(topology::coord_from_rank(rank));
    std::uint8_t flags = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      if (usable[static_cast<std::size_t>(nodes[half])]) {
        flags |= static_cast<std::uint8_t>(1U << half);
        ++free_node_count_;
      }
    }
    rank_pos_[static_cast<std::size_t>(rank)] = static_cast<std::uint32_t>(pos_rank_.size());
    pos_rank_.push_back(static_cast<std::uint32_t>(rank));
    pair_flags_.push_back(flags);
  }
  total_node_count_ = free_node_count_;
  const std::size_t size = pos_rank_.size();
  segment_end_.resize(size);
  for (std::size_t pos = size; pos-- > 0;) {
    const bool joins_next = pos + 1 < size && pos_rank_[pos + 1] == pos_rank_[pos] + 1;
    segment_end_[pos] = joins_next ? segment_end_[pos + 1] : static_cast<std::uint32_t>(pos + 1);
  }
  free_bits_.assign((size + 63) / 64, 0);
  whole_bits_.assign(free_bits_.size(), 0);
  for (std::size_t pos = 0; pos < size; ++pos) {
    set_free(pos);
    update_whole(pos);
  }
}

TorusAllocator TorusAllocator::production(PlacementPolicy policy) {
  std::vector<bool> usable(static_cast<std::size_t>(kNodeSlots));
  for (NodeId n = 0; n < kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] = !topology::is_service_node(n);
  }
  return TorusAllocator{usable, policy};
}

namespace {

/// First position in [pos, size) whose bit in word(w) is set, or `size`.
template <typename Word>
std::size_t next_set(std::size_t pos, std::size_t size, const Word& word) noexcept {
  if (pos >= size) return size;
  const std::size_t words = (size + 63) / 64;
  std::size_t w = pos / 64;
  std::uint64_t bits = word(w) & (~std::uint64_t{0} << (pos % 64));
  while (bits == 0) {
    if (++w == words) return size;
    bits = word(w);
  }
  return std::min(size, w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

/// fn(w, mask) for each word w of a bitmap that [begin, end) touches,
/// with `mask` selecting the positions of the range in that word.
template <typename Fn>
void for_each_word(std::size_t begin, std::size_t end, const Fn& fn) {
  while (begin < end) {
    const std::size_t w = begin / 64;
    const std::size_t stop = std::min(end, (w + 1) * 64);
    const std::size_t width = stop - begin;
    const std::uint64_t ones = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    fn(w, ones << (begin % 64));
    begin = stop;
  }
}

}  // namespace

void TorusAllocator::update_whole(std::size_t pos) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
  if (open_nodes(pos) == 3U) {
    whole_bits_[pos / 64] |= bit;
  } else {
    whole_bits_[pos / 64] &= ~bit;
  }
}

std::size_t TorusAllocator::next_position(std::size_t pos, bool free) const noexcept {
  const std::uint64_t flip = free ? 0 : ~std::uint64_t{0};
  return next_set(pos, pos_rank_.size(), [&](std::size_t w) { return free_bits_[w] ^ flip; });
}

std::size_t TorusAllocator::next_not_whole_free(std::size_t pos) const noexcept {
  return next_set(pos, pos_rank_.size(),
                  [&](std::size_t w) { return ~(free_bits_[w] & whole_bits_[w]); });
}

void TorusAllocator::free_range(std::size_t begin, std::size_t end) noexcept {
  for_each_word(begin, end, [&](std::size_t w, std::uint64_t mask) {
    const std::uint64_t busy = ~free_bits_[w] & mask;
    const std::uint64_t whole = busy & whole_bits_[w];
    free_node_count_ += 2 * static_cast<std::size_t>(std::popcount(whole));
    for (std::uint64_t part = busy & ~whole; part != 0; part &= part - 1) {
      const std::size_t pos = w * 64 + static_cast<std::size_t>(std::countr_zero(part));
      free_node_count_ += static_cast<std::size_t>(std::popcount(open_nodes(pos)));
    }
    free_bits_[w] |= busy;
  });
}

std::optional<std::size_t> TorusAllocator::find_contiguous(std::size_t count) const {
  // A "contiguous" block is a run of consecutive positions in the search
  // order, all currently free; busy routers break a run.
  const std::size_t size = pos_rank_.size();
  for (std::size_t start = next_position(0, true); start < size;) {
    const std::size_t end = next_position(start, false);
    if (end - start >= count) return start;
    start = next_position(end, true);
  }
  return std::nullopt;
}

void TorusAllocator::collect_nodes(std::size_t pos, NodeSet& out, std::size_t& remaining) {
  // Skip routers whose nodes are all held: reserving them would leak the
  // reservation (a rollback only revisits routers that yielded a node).
  const unsigned open = open_nodes(pos);
  if (open == 0) return;
  set_busy(pos);
  const auto yield = static_cast<std::size_t>(std::popcount(open));
  free_node_count_ -= yield;  // the whole router is reserved either way
  // Open halves are {0}, {1} or {0, 1}: one slot run either way.
  const std::size_t take = std::min(remaining, yield);
  out.append_slots(2 * pos_rank_[pos] + (open == 2U ? 1U : 0U), static_cast<std::uint32_t>(take));
  remaining -= take;
}

void TorusAllocator::collect_from(std::size_t pos, NodeSet& out, std::size_t& remaining) {
  const std::size_t size = pos_rank_.size();
  for (pos = next_position(pos, true); remaining > 0 && pos < size;
       pos = next_position(pos, true)) {
    // Free whole routers up to the first other one, the segment's end or
    // the demand yield two nodes each, exactly as one at a time would.
    const std::size_t end = std::min({next_not_whole_free(pos),
                                      static_cast<std::size_t>(segment_end_[pos]),
                                      pos + remaining / 2});
    if (end == pos) {
      collect_nodes(pos++, out, remaining);
      continue;
    }
    for_each_word(pos, end, [&](std::size_t w, std::uint64_t mask) { free_bits_[w] &= ~mask; });
    const std::size_t taken = 2 * (end - pos);
    free_node_count_ -= taken;
    out.append_slots(2 * pos_rank_[pos], static_cast<std::uint32_t>(taken));
    remaining -= taken;
    pos = end;
  }
}

std::optional<NodeSet> TorusAllocator::allocate(std::size_t node_count) {
  if (node_count == 0) return NodeSet{};
  if (node_count > free_node_count_) return std::nullopt;

  // Router demand assumes two usable nodes per router; holds or service
  // sharing can make a router yield one, handled by the scattered pass.
  const std::size_t gemini_demand = (node_count + 1) / 2;

  NodeSet out;
  std::size_t remaining = node_count;

  // The found window is free by construction; the walk continues past it
  // only if holds made some routers yield fewer nodes than expected.
  if (const auto start = find_contiguous(gemini_demand)) collect_from(*start, out, remaining);
  // Scattered fill (fallback, or tail after an under-yielding window).
  collect_from(0, out, remaining);
  if (remaining > 0) {
    // Could not satisfy after all (holds shrank effective capacity):
    // roll back.
    release(out);
    return std::nullopt;
  }
  return out;
}

void TorusAllocator::release(const NodeSet& nodes) {
  // A job owns whole routers: free each router a run touches, a segment
  // of consecutive positions at a time.
  for (const NodeSet::Run& run : nodes.runs()) {
    const std::size_t last = (run.first + run.count - 1) / 2;
    for (std::size_t rank = run.first / 2; rank <= last;) {
      const std::size_t pos = rank_pos_[rank];
      if (pos == kNoPosition) {
        ++rank;
        continue;
      }
      const std::size_t end = std::min<std::size_t>(segment_end_[pos], pos + last - rank + 1);
      free_range(pos, end);
      rank += end - pos;
    }
  }
}

void TorusAllocator::hold_node(topology::NodeId node) {
  const std::uint32_t pos = position_of(node);
  if (pos == kNoPosition) return;  // no usable node behind this router
  const unsigned usable = 1U << (torus_slot(node) % 2);
  const unsigned held = usable << 2;
  if ((pair_flags_[pos] & held) != 0) return;
  pair_flags_[pos] = static_cast<std::uint8_t>(pair_flags_[pos] | held);
  update_whole(pos);
  if ((pair_flags_[pos] & usable) != 0 && is_free(pos)) --free_node_count_;
}

void TorusAllocator::unhold_node(topology::NodeId node) {
  const std::uint32_t pos = position_of(node);
  if (pos == kNoPosition) return;
  const unsigned usable = 1U << (torus_slot(node) % 2);
  const unsigned held = usable << 2;
  if ((pair_flags_[pos] & held) == 0) return;
  pair_flags_[pos] = static_cast<std::uint8_t>(pair_flags_[pos] & ~held);
  update_whole(pos);
  if ((pair_flags_[pos] & usable) != 0 && is_free(pos)) ++free_node_count_;
}

}  // namespace titan::sched
