// Shared serialization internals of the dataset writers (every one of
// them lives in sharded.cpp) and the crash harness's context digest: the
// context's canonical text lines.  Not a public API.
#pragma once

#include <string>
#include <vector>

#include "study/context.hpp"

namespace titan::study::detail {

/// Console lines of the context: the simulator's exact log when ground
/// truth is present, else the console-recoverable view re-serialized (the
/// same event stream either way).
[[nodiscard]] std::vector<std::string> console_lines_of(const StudyContext& context);

/// Job lines of the context (ground-truth trace, else the loaded job log).
[[nodiscard]] std::vector<std::string> job_lines_of(const StudyContext& context);

}  // namespace titan::study::detail
