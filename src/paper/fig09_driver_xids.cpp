// Fig. 9: error frequency of XID 31, 32, 43, 44 (driver-dominated kinds),
// plus the paper's "<10 occurrences" facts for 32/38 and "never" for 42.
#include "paper/paper.hpp"

#include "analysis/frequency.hpp"

void titan::paper::fig09(const PaperInputs& in, Checks& checks) {
  const auto& study = in.study();
  const auto& frame = in.frame();
  const auto& period = study.config.period;

  print_header("Fig. 9 -- Driver-related XID frequency (31, 32, 43, 44)");
  struct Row {
    xid::ErrorKind kind;
    const char* label;
  };
  const std::vector<Row> rows{{xid::ErrorKind::kMemoryPageFault, "XID 31 (page fault)"},
                              {xid::ErrorKind::kCorruptedPushBuffer, "XID 32 (push buffer)"},
                              {xid::ErrorKind::kGpuStoppedProcessing, "XID 43 (GPU stopped)"},
                              {xid::ErrorKind::kCtxSwitchFault, "XID 44 (ctx switch)"},
                              {xid::ErrorKind::kDriverFirmware, "XID 38 (firmware)"},
                              {xid::ErrorKind::kVideoProcessorDriver, "XID 42 (video proc)"}};
  std::vector<std::string> labels;
  std::vector<std::uint64_t> counts;
  for (const auto& row : rows) {
    labels.emplace_back(row.label);
    counts.push_back(frame.count_of(row.kind));
  }
  print_block(render::bar_chart(labels, counts));

  const auto xid32 = frame.count_of(xid::ErrorKind::kCorruptedPushBuffer);
  const auto xid38 = frame.count_of(xid::ErrorKind::kDriverFirmware);
  const auto xid42 = frame.count_of(xid::ErrorKind::kVideoProcessorDriver);
  const auto xid43 = frame.count_of(xid::ErrorKind::kGpuStoppedProcessing);
  const auto xid44 = frame.count_of(xid::ErrorKind::kCtxSwitchFault);
  print_row("XID 32 total", "< 10", std::to_string(xid32));
  print_row("XID 38 total", "< 10", std::to_string(xid38));
  print_row("XID 42 total", "0 (never observed)", std::to_string(xid42));

  const double d43 = analysis::daily_dispersion_index(
      frame, xid::ErrorKind::kGpuStoppedProcessing, period.begin, period.end);
  print_row("XID 43 daily dispersion index", "not bursty (near Poisson)",
            render::fmt_double(d43, 2));

  checks.check("XID 32 occurred fewer than 10 times",
               xid32 < static_cast<std::uint64_t>(kXid32AtMost));
  checks.check("XID 38 occurred fewer than 10 times",
               xid38 < static_cast<std::uint64_t>(kXid38AtMost));
  checks.check("XID 42 never occurred", xid42 == 0);
  checks.check("XID 43/44 are the frequent driver errors", xid43 > xid32 * 5 && xid44 > xid32 * 3);
}
