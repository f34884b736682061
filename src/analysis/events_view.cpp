#include "analysis/events_view.hpp"

namespace titan::analysis {

std::vector<parse::ParsedEvent> as_parsed(std::span<const xid::Event> events) {
  std::vector<parse::ParsedEvent> out;
  out.reserve(events.size());
  for (const auto& e : events) {
    if (e.kind == xid::ErrorKind::kSingleBitError) continue;
    out.push_back(parse::ParsedEvent{e.time, e.node, e.kind, e.structure});
  }
  return out;
}

}  // namespace titan::analysis
