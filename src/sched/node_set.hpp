// A job's node placement, stored as runs of consecutive torus slots.
//
// A torus slot numbers every node by its Gemini router: slot = 2 x torus
// rank + half, where half 0 is the router's lower NodeId.  The production
// allocator hands out whole routers in torus-rank order, so a job's nodes
// are a handful of slot runs -- service blades and busy routers only split
// them -- where a node list would hold one 4-byte id per node.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "topology/machine.hpp"
#include "topology/torus.hpp"

namespace titan::sched {

namespace detail {

struct SlotTables {
  std::array<std::uint16_t, topology::kNodeSlots> slot_of{};  ///< NodeId -> torus slot
  std::array<std::uint16_t, topology::kNodeSlots> node_of{};  ///< torus slot -> NodeId
};

constexpr SlotTables make_slot_tables() {
  SlotTables tables;
  for (int rank = 0; rank < topology::kGeminiCount; ++rank) {
    const auto nodes = topology::gemini_nodes(topology::coord_from_rank(rank));
    for (int half = 0; half < 2; ++half) {
      const auto node = static_cast<std::size_t>(nodes[static_cast<std::size_t>(half)]);
      const auto slot = static_cast<std::uint16_t>(2 * rank + half);
      tables.slot_of[node] = slot;
      tables.node_of[slot] = static_cast<std::uint16_t>(node);
    }
  }
  return tables;
}

inline constexpr SlotTables kSlotTables = make_slot_tables();

}  // namespace detail

/// Torus slot of a valid node: 2 x its router's torus rank + its half.
[[nodiscard]] inline std::uint32_t torus_slot(topology::NodeId node) noexcept {
  return detail::kSlotTables.slot_of[static_cast<std::size_t>(node)];
}

/// Node at a torus slot in [0, kNodeSlots).
[[nodiscard]] inline topology::NodeId slot_node(std::uint32_t slot) noexcept {
  return detail::kSlotTables.node_of[slot];
}

/// An ordered set of nodes held as (first slot, count) runs.  Iteration
/// yields nodes in the order they were appended; runs merge only when a
/// node's slot directly follows the previous one, so the runs are a
/// function of that order and equal sets compare equal.
class NodeSet {
 public:
  struct Run {
    std::uint32_t first = 0;  ///< torus slot of the run's first node
    std::uint32_t count = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };

  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = topology::NodeId;
    using difference_type = std::ptrdiff_t;
    using reference = topology::NodeId;
    using pointer = void;

    iterator() = default;
    iterator(const Run* run, std::uint32_t offset) : run_{run}, offset_{offset} {}

    reference operator*() const noexcept { return slot_node(run_->first + offset_); }
    iterator& operator++() noexcept {
      if (++offset_ == run_->count) {
        ++run_;
        offset_ = 0;
      }
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const Run* run_ = nullptr;
    std::uint32_t offset_ = 0;
  };
  using const_iterator = iterator;

  NodeSet() = default;
  /// From a node list, in its order; std::out_of_range for an invalid id.
  NodeSet(std::initializer_list<topology::NodeId> nodes);
  explicit NodeSet(std::span<const topology::NodeId> nodes);

  /// Append one node; std::out_of_range for an invalid id.
  void push_back(topology::NodeId node);
  /// Append the `count` nodes at slots [first, first + count).
  void append_slots(std::uint32_t first, std::uint32_t count);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] topology::NodeId front() const noexcept { return slot_node(runs_.front().first); }
  [[nodiscard]] topology::NodeId back() const noexcept {
    return slot_node(runs_.back().first + runs_.back().count - 1);
  }
  /// The i-th node in iteration order, O(runs); std::out_of_range past
  /// the end.
  [[nodiscard]] topology::NodeId nth(std::size_t i) const;

  [[nodiscard]] iterator begin() const noexcept { return iterator{runs_.data(), 0}; }
  [[nodiscard]] iterator end() const noexcept { return iterator{runs_.data() + runs_.size(), 0}; }
  [[nodiscard]] const std::vector<Run>& runs() const noexcept { return runs_; }

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

 private:
  std::vector<Run> runs_;
  std::uint32_t size_ = 0;
};

}  // namespace titan::sched
