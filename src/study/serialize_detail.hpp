// Shared serialization internals for the dataset writers (write_dataset
// and the sharded producers).  Both formats round-trip doubles through
// the text serialization so text, binary and sharded datasets of one
// context load byte-identically; these helpers are that quantization
// rule in one place.  Not a public API.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "study/context.hpp"
#include "tdf/tdf.hpp"

namespace titan::study::detail {

/// Console lines of the context: the simulator's exact log when ground
/// truth is present, else the console-recoverable view re-serialized (the
/// same event stream either way).
[[nodiscard]] std::vector<std::string> console_lines_of(const StudyContext& context);

/// Job lines of the context (ground-truth trace, else the loaded job log).
[[nodiscard]] std::vector<std::string> job_lines_of(const StudyContext& context);

/// Job records quantized through the text serialization (what the binary
/// formats store).
[[nodiscard]] std::vector<logsim::JobLogRecord> quantized_jobs(const StudyContext& context);

/// Smi snapshot quantized through the text serialization.
[[nodiscard]] logsim::SmiSnapshot quantized_smi(const logsim::SmiSnapshot& snapshot);

/// The binary container for events [lo, hi) of the context's stream: the
/// study window and profile in its meta, plus -- with `side_artifacts`,
/// which the writers set on their last container -- the quantized job
/// and smi segments the context has.
[[nodiscard]] tdf::TdfDataset container_of(const StudyContext& context, std::size_t lo,
                                           std::size_t hi, bool side_artifacts);

}  // namespace titan::study::detail
