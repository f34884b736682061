// Torus-aware node allocator.
//
// ALPS on Titan hands jobs node lists ordered along the Gemini torus; for
// large jobs that means a contiguous span of torus ranks.  Because the
// torus X dimension is cabled as a folded ring (see topology/torus.hpp),
// a contiguous torus span visits *alternating physical cabinets* -- the
// root cause of the striking Fig. 12 pattern.  The allocator reproduces
// that policy: Gemini-granular (2 nodes per router), contiguous-span first
// fit in torus-rank order, falling back to a scattered lowest-rank fill
// when fragmentation prevents a contiguous block.
//
// An optional cage-aware placement policy implements the operational
// improvement of Observation 4 ("this observation was used for improved
// job scheduling for large GPU jobs at OLCF"): prefer ranks whose Geminis
// sit in cooler (lower) cages when placing very large jobs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/node_set.hpp"
#include "topology/machine.hpp"
#include "topology/torus.hpp"

namespace titan::sched {

enum class PlacementPolicy : std::uint8_t {
  kTorusOrder,   ///< production behaviour (Fig. 12 pattern)
  kCoolCageFirst,///< Observation 4 ablation: bias large jobs to lower cages
};

class TorusAllocator {
 public:
  /// `usable` marks node slots that may be allocated (false for service
  /// nodes and held-down nodes).
  explicit TorusAllocator(const std::vector<bool>& usable,
                          PlacementPolicy policy = PlacementPolicy::kTorusOrder);

  /// Convenience: all compute (non-service) nodes usable.
  static TorusAllocator production(PlacementPolicy policy = PlacementPolicy::kTorusOrder);

  /// Allocate `node_count` nodes.  Returns std::nullopt when not enough
  /// free nodes exist.  Allocation is Gemini-granular: an odd request
  /// holds its final router's second node unusable-but-reserved (as ALPS
  /// does for exclusive placement).  Nodes come in search order, each
  /// router's lower node first.
  [[nodiscard]] std::optional<NodeSet> allocate(std::size_t node_count);

  /// Return nodes of a previous allocation to the free pool: every router
  /// the set touches is freed whole.
  void release(const NodeSet& nodes);

  [[nodiscard]] std::size_t free_nodes() const noexcept { return free_node_count_; }
  [[nodiscard]] std::size_t total_nodes() const noexcept { return total_node_count_; }

  /// Take a node out of service (e.g. health-monitor hold).  No effect if
  /// already allocated -- the hold then applies upon release.
  void hold_node(topology::NodeId node);
  void unhold_node(topology::NodeId node);

 private:
  static constexpr std::uint32_t kNoPosition = UINT32_MAX;

  // Free state is one bit per search-order position (see free_bits_).
  [[nodiscard]] bool is_free(std::size_t pos) const noexcept {
    return ((free_bits_[pos / 64] >> (pos % 64)) & 1U) != 0;
  }
  void set_free(std::size_t pos) noexcept {
    free_bits_[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
  void set_busy(std::size_t pos) noexcept {
    free_bits_[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
  }
  /// Which of the router's two nodes are usable and not held (bit = half).
  [[nodiscard]] unsigned open_nodes(std::size_t pos) const noexcept {
    return pair_flags_[pos] & ~(pair_flags_[pos] >> 2) & 3U;
  }
  /// Re-derive the router's whole_bits_ bit from its flags.
  void update_whole(std::size_t pos) noexcept;
  /// First position at or after `pos` that is free (`free`) or busy
  /// (!`free`); the position count if none.
  [[nodiscard]] std::size_t next_position(std::size_t pos, bool free) const noexcept;
  /// First position at or after `pos` that is busy or not whole.
  [[nodiscard]] std::size_t next_not_whole_free(std::size_t pos) const noexcept;
  /// Free the busy routers among positions [begin, end).
  void free_range(std::size_t begin, std::size_t end) noexcept;

  /// First fit: start of the first run of `count` free positions.
  [[nodiscard]] std::optional<std::size_t> find_contiguous(std::size_t count) const;
  /// Reserve the router at free position `pos` and take up to `remaining`
  /// of its nodes; a router whose usable nodes are all held stays free.
  void collect_nodes(std::size_t pos, NodeSet& out, std::size_t& remaining);
  /// collect_nodes over the free positions from `pos` on, until
  /// `remaining` reaches zero; stretches of free whole routers at
  /// consecutive ranks are reserved a word at a time.
  void collect_from(std::size_t pos, NodeSet& out, std::size_t& remaining);
  /// Search-order position of the router serving `node`, or kNoPosition.
  [[nodiscard]] std::uint32_t position_of(topology::NodeId node) const noexcept {
    return rank_pos_[torus_slot(node) / 2];
  }

  // Routers are addressed by their position in the policy's search order;
  // only routers with a usable node have one.  Tables built once replace
  // per-call torus-coordinate math.
  std::vector<std::uint32_t> pos_rank_;  ///< position -> torus rank
  std::vector<std::uint32_t> rank_pos_;  ///< torus rank -> position, or kNoPosition
  /// Position -> end of its segment: the positions [pos, segment_end_[pos])
  /// hold consecutive torus ranks, so their nodes are one slot run.
  std::vector<std::uint32_t> segment_end_;
  /// Per position: bit h = node h usable, bit 2 + h = node h held.
  std::vector<std::uint8_t> pair_flags_;
  /// Bit `pos` is set while that router is free -- the only free state.
  /// Reserving or freeing a router is one bit flip, and first fit walks
  /// free runs 64 routers per word with std::countr_zero.
  std::vector<std::uint64_t> free_bits_;
  /// Bit `pos` is set while both of the router's nodes are usable and not
  /// held (open_nodes == 3): such routers are taken and freed in bulk.
  std::vector<std::uint64_t> whole_bits_;
  std::size_t free_node_count_ = 0;
  std::size_t total_node_count_ = 0;
};

}  // namespace titan::sched
