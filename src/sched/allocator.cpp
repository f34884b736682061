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

  node_slot_.assign(static_cast<std::size_t>(kNodeSlots), kNoSlot);
  pair_.reserve(order.size());
  pair_flags_.reserve(order.size());
  for (const int rank : order) {
    const auto nodes = topology::gemini_nodes(topology::coord_from_rank(rank));
    std::uint8_t flags = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      const auto idx = static_cast<std::size_t>(nodes[half]);
      node_slot_[idx] = static_cast<std::uint32_t>(2 * pair_.size() + half);
      if (usable[idx]) {
        flags |= static_cast<std::uint8_t>(1U << half);
        ++free_node_count_;
      }
    }
    pair_.push_back(nodes);
    pair_flags_.push_back(flags);
  }
  total_node_count_ = free_node_count_;
  free_bits_.assign((pair_.size() + 63) / 64, 0);
  for (std::size_t pos = 0; pos < pair_.size(); ++pos) set_free(pos);
}

TorusAllocator TorusAllocator::production(PlacementPolicy policy) {
  std::vector<bool> usable(static_cast<std::size_t>(kNodeSlots));
  for (NodeId n = 0; n < kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] = !topology::is_service_node(n);
  }
  return TorusAllocator{usable, policy};
}

std::size_t TorusAllocator::next_position(std::size_t pos, bool free) const noexcept {
  // Bits past the last position are never set, so they read as busy.
  const std::size_t size = pair_.size();
  if (pos >= size) return size;
  const std::uint64_t flip = free ? 0 : ~std::uint64_t{0};
  std::size_t w = pos / 64;
  std::uint64_t word = (free_bits_[w] ^ flip) & (~std::uint64_t{0} << (pos % 64));
  while (word == 0) {
    if (++w == free_bits_.size()) return size;
    word = free_bits_[w] ^ flip;
  }
  return std::min(size, w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

std::optional<std::size_t> TorusAllocator::find_contiguous(std::size_t count) const {
  // A "contiguous" block is a run of consecutive positions in the search
  // order, all currently free; busy routers break a run.
  const std::size_t size = pair_.size();
  for (std::size_t start = next_position(0, true); start < size;) {
    const std::size_t end = next_position(start, false);
    if (end - start >= count) return start;
    start = next_position(end, true);
  }
  return std::nullopt;
}

void TorusAllocator::collect_nodes(std::size_t pos, std::vector<NodeId>& out,
                                   std::size_t& remaining) {
  // Skip routers whose nodes are all held: reserving them would leak the
  // reservation (a rollback only revisits routers that yielded a node).
  const unsigned open = open_nodes(pos);
  if (open == 0) return;
  set_busy(pos);
  for (std::size_t half = 0; half < 2; ++half) {
    if (((open >> half) & 1U) == 0) continue;
    --free_node_count_;  // the whole router is reserved either way
    if (remaining > 0) {
      out.push_back(pair_[pos][half]);
      --remaining;
    }
  }
}

void TorusAllocator::collect_from(std::size_t pos, std::vector<NodeId>& out,
                                  std::size_t& remaining) {
  for (pos = next_position(pos, true); remaining > 0 && pos < pair_.size();
       pos = next_position(pos + 1, true)) {
    collect_nodes(pos, out, remaining);
  }
}

std::optional<std::vector<NodeId>> TorusAllocator::allocate(std::size_t node_count) {
  if (node_count == 0) return std::vector<NodeId>{};
  if (node_count > free_node_count_) return std::nullopt;

  // Router demand assumes two usable nodes per router; holds or service
  // sharing can make a router yield one, handled by the scattered pass.
  const std::size_t gemini_demand = (node_count + 1) / 2;

  std::vector<NodeId> out;
  out.reserve(node_count);
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

void TorusAllocator::release(const std::vector<NodeId>& nodes) {
  // A job owns whole routers; freeing any node of a router frees it.
  for (NodeId n : nodes) {
    const std::uint32_t slot = node_slot_[static_cast<std::size_t>(n)];
    if (slot == kNoSlot || is_free(slot / 2)) continue;  // freed via its sibling node
    set_free(slot / 2);
    free_node_count_ += static_cast<std::size_t>(std::popcount(open_nodes(slot / 2)));
  }
}

void TorusAllocator::hold_node(topology::NodeId node) {
  const std::uint32_t slot = node_slot_[static_cast<std::size_t>(node)];
  if (slot == kNoSlot) return;  // no usable node behind this router
  const std::size_t pos = slot / 2;
  const unsigned usable = 1U << (slot % 2);
  const unsigned held = usable << 2;
  if ((pair_flags_[pos] & held) != 0) return;
  pair_flags_[pos] = static_cast<std::uint8_t>(pair_flags_[pos] | held);
  if ((pair_flags_[pos] & usable) != 0 && is_free(pos)) --free_node_count_;
}

void TorusAllocator::unhold_node(topology::NodeId node) {
  const std::uint32_t slot = node_slot_[static_cast<std::size_t>(node)];
  if (slot == kNoSlot) return;
  const std::size_t pos = slot / 2;
  const unsigned usable = 1U << (slot % 2);
  const unsigned held = usable << 2;
  if ((pair_flags_[pos] & held) == 0) return;
  pair_flags_[pos] = static_cast<std::uint8_t>(pair_flags_[pos] & ~held);
  if ((pair_flags_[pos] & usable) != 0 && is_free(pos)) ++free_node_count_;
}

}  // namespace titan::sched
