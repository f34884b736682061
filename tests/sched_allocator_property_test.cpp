// Property tests: the allocator must preserve its invariants under long
// random sequences of allocate / release / hold / unhold operations, and
// hand out exactly what the linear-scan allocator it replaced would.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <vector>

#include "sched/allocator.hpp"
#include "stats/rng.hpp"
#include "topology/torus.hpp"

namespace titan::sched {
namespace {

using topology::NodeId;

/// Test oracle: the linear first-fit allocator TorusAllocator replaced.
/// Free state per router in torus-rank order, a linear scan of the search
/// order for the first free run, and torus-coordinate math per node on
/// release.
class NaiveTorusAllocator {
 public:
  NaiveTorusAllocator(const std::vector<bool>& usable, PlacementPolicy policy)
      : geminis_(static_cast<std::size_t>(topology::kGeminiCount)),
        node_usable_{usable},
        node_held_(static_cast<std::size_t>(topology::kNodeSlots), false) {
    for (std::size_t rank = 0; rank < geminis_.size(); ++rank) {
      bool any = false;
      for (NodeId n : nodes_of(rank)) {
        if (node_usable_[static_cast<std::size_t>(n)]) {
          any = true;
          ++free_node_count_;
        }
      }
      geminis_[rank].usable = any;
      geminis_[rank].free = any;
    }
    for (std::size_t rank = 0; rank < geminis_.size(); ++rank) {
      if (geminis_[rank].usable) search_order_.push_back(rank);
    }
    if (policy == PlacementPolicy::kCoolCageFirst) {
      std::stable_sort(search_order_.begin(), search_order_.end(),
                       [](std::size_t a, std::size_t b) { return cage_of(a) < cage_of(b); });
    }
  }

  std::optional<std::vector<NodeId>> allocate(std::size_t node_count) {
    if (node_count == 0) return std::vector<NodeId>{};
    if (node_count > free_node_count_) return std::nullopt;
    const std::size_t gemini_demand = (node_count + 1) / 2;
    std::vector<NodeId> out;
    std::size_t remaining = node_count;
    if (const auto start = find_contiguous(gemini_demand)) {
      for (std::size_t i = *start; remaining > 0 && i < search_order_.size(); ++i) {
        if (!geminis_[search_order_[i]].free) continue;
        collect_nodes(search_order_[i], out, remaining);
      }
    }
    for (std::size_t i = 0; remaining > 0 && i < search_order_.size(); ++i) {
      if (!geminis_[search_order_[i]].free) continue;
      collect_nodes(search_order_[i], out, remaining);
    }
    if (remaining > 0) {
      release(out);
      return std::nullopt;
    }
    return out;
  }

  template <typename Nodes>
  void release(const Nodes& nodes) {
    for (NodeId n : nodes) {
      const std::size_t rank = rank_of(n);
      if (geminis_[rank].free) continue;
      geminis_[rank].free = true;
      for (NodeId sibling : nodes_of(rank)) {
        const auto idx = static_cast<std::size_t>(sibling);
        if (node_usable_[idx] && !node_held_[idx]) ++free_node_count_;
      }
    }
  }

  void hold_node(NodeId node) {
    const auto idx = static_cast<std::size_t>(node);
    if (node_held_[idx]) return;
    node_held_[idx] = true;
    if (node_usable_[idx] && geminis_[rank_of(node)].free) --free_node_count_;
  }

  void unhold_node(NodeId node) {
    const auto idx = static_cast<std::size_t>(node);
    if (!node_held_[idx]) return;
    node_held_[idx] = false;
    if (node_usable_[idx] && geminis_[rank_of(node)].free) ++free_node_count_;
  }

  [[nodiscard]] std::size_t free_nodes() const noexcept { return free_node_count_; }

 private:
  struct GeminiState {
    bool usable = false;
    bool free = false;
  };

  static std::size_t rank_of(NodeId node) {
    return static_cast<std::size_t>(topology::torus_rank(topology::torus_coord(node)));
  }
  static std::array<NodeId, 2> nodes_of(std::size_t rank) {
    return topology::gemini_nodes(topology::coord_from_rank(static_cast<int>(rank)));
  }
  static int cage_of(std::size_t rank) {
    return topology::coord_from_rank(static_cast<int>(rank)).z / topology::kBladesPerCage;
  }

  [[nodiscard]] std::optional<std::size_t> find_contiguous(std::size_t count) const {
    std::size_t run = 0;
    for (std::size_t i = 0; i < search_order_.size(); ++i) {
      if (geminis_[search_order_[i]].free) {
        ++run;
        if (run >= count) return i + 1 - count;
      } else {
        run = 0;
      }
    }
    return std::nullopt;
  }

  void collect_nodes(std::size_t rank, std::vector<NodeId>& out, std::size_t& remaining) {
    const auto nodes = nodes_of(rank);
    const bool any_effective = std::any_of(nodes.begin(), nodes.end(), [&](NodeId n) {
      const auto idx = static_cast<std::size_t>(n);
      return node_usable_[idx] && !node_held_[idx];
    });
    if (!any_effective) return;
    geminis_[rank].free = false;
    for (NodeId n : nodes) {
      const auto idx = static_cast<std::size_t>(n);
      if (!node_usable_[idx] || node_held_[idx]) continue;
      --free_node_count_;
      if (remaining > 0) {
        out.push_back(n);
        --remaining;
      }
    }
  }

  std::vector<GeminiState> geminis_;
  std::vector<bool> node_usable_;
  std::vector<bool> node_held_;
  std::vector<std::size_t> search_order_;
  std::size_t free_node_count_ = 0;
};

/// Production mask (service nodes unusable), or with `holey` also a
/// seeded scatter of unusable compute nodes: some routers lose one node,
/// a few lose both.
/// The NodeSet's nodes as a list, in iteration order.
std::vector<NodeId> flat(const NodeSet& nodes) { return {nodes.begin(), nodes.end()}; }

std::vector<bool> usable_mask(bool holey, stats::Rng& rng) {
  std::vector<bool> usable(static_cast<std::size_t>(topology::kNodeSlots));
  for (NodeId n = 0; n < topology::kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] =
        !topology::is_service_node(n) && !(holey && rng.bernoulli(0.05));
  }
  return usable;
}

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorFuzz, InvariantsHoldUnderRandomOps) {
  stats::Rng rng{GetParam()};
  auto alloc = TorusAllocator::production();
  const std::size_t total = alloc.total_nodes();

  std::vector<NodeSet> live;
  std::set<topology::NodeId> allocated;
  std::set<topology::NodeId> held;

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.5) {
      // Allocate a random size (skewed small, occasionally huge).
      const std::size_t request =
          rng.bernoulli(0.1) ? 1 + rng.below(8000) : 1 + rng.below(64);
      const auto nodes = alloc.allocate(request);
      if (nodes) {
        ASSERT_EQ(nodes->size(), request);
        for (const auto n : *nodes) {
          ASSERT_FALSE(topology::is_service_node(n));
          ASSERT_FALSE(held.contains(n)) << "held node handed out";
          ASSERT_TRUE(allocated.insert(n).second) << "double allocation of node " << n;
        }
        live.push_back(std::move(*nodes));
      } else {
        // Refusal implies genuinely insufficient capacity for the request.
        ASSERT_GT(request, alloc.free_nodes());
      }
    } else if (action < 0.85 && !live.empty()) {
      // Release a random live job.
      const std::size_t idx = rng.below(live.size());
      for (const auto n : live[idx]) allocated.erase(n);
      alloc.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 0.95) {
      // Hold a random currently-free compute node.
      const auto node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
      if (!topology::is_service_node(node) && !allocated.contains(node)) {
        alloc.hold_node(node);
        held.insert(node);
      }
    } else if (!held.empty()) {
      const auto node = *held.begin();
      alloc.unhold_node(node);
      held.erase(node);
    }
    // Conservation: free nodes never exceed capacity minus live usage.
    ASSERT_LE(alloc.free_nodes(), total);
  }

  // Drain everything; capacity must be fully restored (minus holds).
  for (const auto& job : live) alloc.release(job);
  for (const auto n : held) alloc.unhold_node(n);
  EXPECT_EQ(alloc.free_nodes(), total);
}

TEST_P(AllocatorFuzz, MatchesNaiveAllocatorInLockstep) {
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    for (const bool holey : {false, true}) {
      stats::Rng rng{GetParam() * 4 + (holey ? 1 : 0) +
                     (policy == PlacementPolicy::kCoolCageFirst ? 2 : 0)};
      const auto usable = usable_mask(holey, rng);
      TorusAllocator fast{usable, policy};
      NaiveTorusAllocator naive{usable, policy};
      ASSERT_EQ(fast.free_nodes(), naive.free_nodes());

      std::vector<NodeSet> live;
      std::vector<NodeId> held;
      const auto allocate_both = [&](std::size_t request) {
        auto got = fast.allocate(request);
        const auto want = naive.allocate(request);
        ASSERT_EQ(got.has_value(), want.has_value()) << "request " << request;
        if (got) {
          ASSERT_EQ(flat(*got), *want) << "request " << request;
          if (!got->empty()) live.push_back(std::move(*got));
        }
      };
      const auto random_node = [&] {
        return static_cast<NodeId>(rng.below(topology::kNodeSlots));
      };

      for (int step = 0; step < 600; ++step) {
        const double action = rng.uniform();
        if (action < 0.35) {
          // Odd and even requests, skewed small, sometimes near capacity.
          const std::size_t request = rng.bernoulli(0.1)   ? rng.below(fast.free_nodes() + 64)
                                      : rng.bernoulli(0.2) ? 1 + rng.below(4000)
                                                           : rng.below(65);
          allocate_both(request);
        } else if (action < 0.55 && !live.empty()) {
          // Release/reallocate churn: free a job, then ask for its size.
          const std::size_t idx = rng.below(live.size());
          const auto job = std::move(live[idx]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
          fast.release(job);
          naive.release(job);
          if (rng.bernoulli(0.5)) allocate_both(job.size());
        } else if (action < 0.75) {
          // Hold any node: free, allocated, service or already held.
          const auto node = rng.bernoulli(0.5) && !live.empty()
                                ? live[rng.below(live.size())].front()
                                : random_node();
          fast.hold_node(node);
          naive.hold_node(node);
          held.push_back(node);
        } else if (action < 0.85) {
          // A burst of holds one node per router shrinks capacity below
          // the node count, then a request for what free_nodes() reports.
          for (int h = 0; h < 200; ++h) {
            const auto node = random_node();
            fast.hold_node(node);
            naive.hold_node(node);
            held.push_back(node);
          }
          ASSERT_EQ(fast.free_nodes(), naive.free_nodes());
          allocate_both(fast.free_nodes() + rng.below(3));
        } else if (!held.empty()) {
          // Unhold a held node, or one that never was held.
          const auto node = rng.bernoulli(0.8) ? held[rng.below(held.size())] : random_node();
          fast.unhold_node(node);
          naive.unhold_node(node);
        }
        ASSERT_EQ(fast.free_nodes(), naive.free_nodes()) << "step " << step;
      }

      for (const auto& job : live) {
        fast.release(job);
        naive.release(job);
      }
      for (const auto node : held) {
        fast.unhold_node(node);
        naive.unhold_node(node);
      }
      ASSERT_EQ(fast.free_nodes(), naive.free_nodes());
      EXPECT_EQ(fast.free_nodes(), fast.total_nodes());
      allocate_both(fast.total_nodes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(AllocatorProperty, RepeatedFillDrainIsStable) {
  auto alloc = TorusAllocator::production();
  const std::size_t total = alloc.total_nodes();
  for (int round = 0; round < 5; ++round) {
    std::vector<NodeSet> jobs;
    while (alloc.free_nodes() >= 1000) {
      auto nodes = alloc.allocate(1000);
      ASSERT_TRUE(nodes.has_value());
      jobs.push_back(std::move(*nodes));
    }
    for (const auto& job : jobs) alloc.release(job);
    ASSERT_EQ(alloc.free_nodes(), total);
  }
}

TEST(AllocatorProperty, FragmentationStillServes) {
  // Allocate pairs, free every other one, then ask for a large block: the
  // scattered fallback must serve it from the freed holes.
  auto alloc = TorusAllocator::production();
  std::vector<NodeSet> jobs;
  while (alloc.free_nodes() >= 2) {
    auto nodes = alloc.allocate(2);
    ASSERT_TRUE(nodes.has_value());
    jobs.push_back(std::move(*nodes));
  }
  std::size_t freed = 0;
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    alloc.release(jobs[i]);
    freed += jobs[i].size();
  }
  const auto big = alloc.allocate(freed);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->size(), freed);
}

}  // namespace
}  // namespace titan::sched
