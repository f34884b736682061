#include "sched/node_set.hpp"

#include <stdexcept>

namespace titan::sched {

NodeSet::NodeSet(std::initializer_list<topology::NodeId> nodes)
    : NodeSet{std::span<const topology::NodeId>{nodes.begin(), nodes.size()}} {}

NodeSet::NodeSet(std::span<const topology::NodeId> nodes) {
  for (const topology::NodeId node : nodes) push_back(node);
}

void NodeSet::push_back(topology::NodeId node) {
  if (node < 0 || node >= topology::kNodeSlots) {
    throw std::out_of_range{"NodeSet: node id out of range"};
  }
  append_slots(torus_slot(node), 1);
}

void NodeSet::append_slots(std::uint32_t first, std::uint32_t count) {
  if (count == 0) return;
  if (!runs_.empty() && runs_.back().first + runs_.back().count == first) {
    runs_.back().count += count;
  } else {
    runs_.push_back(Run{first, count});
  }
  size_ += count;
}

topology::NodeId NodeSet::nth(std::size_t i) const {
  for (const Run& run : runs_) {
    if (i < run.count) return slot_node(run.first + static_cast<std::uint32_t>(i));
    i -= run.count;
  }
  throw std::out_of_range{"NodeSet: index past the end"};
}

}  // namespace titan::sched
