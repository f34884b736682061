// Adapter between ground-truth events and the console-recoverable view.
//
// Analyses operate on the console-recoverable fields (time/node/kind/
// structure): what a real console line yields.  Ground-truth xid::Event
// streams are downgraded through `as_parsed` before analysis, so every
// analysis result is achievable from logs alone -- richer joins (cards,
// jobs) go through the ledger and job trace explicitly, as the paper's
// did.
#pragma once

#include <span>
#include <vector>

#include "parse/console.hpp"
#include "xid/event.hpp"

namespace titan::analysis {

/// Downgrade ground truth to the console-recoverable view.  SBEs are
/// dropped (they never reach the console log).
[[nodiscard]] std::vector<parse::ParsedEvent> as_parsed(std::span<const xid::Event> events);

}  // namespace titan::analysis
