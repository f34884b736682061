#include "paper/paper.hpp"

#include <algorithm>
#include <array>

#include "study/source.hpp"

namespace titan::paper {

const study::StudyContext& PaperInputs::context() const {
  if (!context_) {
    const auto config = core::default_config();
    std::fprintf(stderr, "[titanrel] simulating Jun'13-Feb'15 campaign (seed %llu)...\n",
                 static_cast<unsigned long long>(config.seed));
    context_ = study::SimulatedSource{config}.load();
  }
  return *context_;
}

const analysis::UtilizationStudy& PaperInputs::utilization() const {
  if (!utilization_) {
    const auto& truth = study();
    const auto end = truth.config.period.end;
    utilization_ = analysis::utilization_study(truth.trace, truth.sbe_strikes,
                                               end - 45 * stats::kSecondsPerDay, end);
  }
  return *utilization_;
}

void Checks::check(const std::string& name, bool ok) {
  records_.push_back(CheckRecord{id_, name, ok});
  print_verdict(name, ok);
}

namespace {

constexpr std::array kEntries{
    Entry{"table1", table1}, Entry{"table2", table2}, Entry{"fig01", fig01}, Entry{"fig02", fig02},
    Entry{"fig03", fig03},   Entry{"fig04", fig04},   Entry{"fig05", fig05}, Entry{"fig06", fig06},
    Entry{"fig07", fig07},   Entry{"fig08", fig08},   Entry{"fig09", fig09}, Entry{"fig10", fig10},
    Entry{"fig11", fig11},   Entry{"fig12", fig12},   Entry{"fig13", fig13}, Entry{"fig14", fig14},
    Entry{"fig15", fig15},   Entry{"fig16", fig16},   Entry{"fig17", fig17}, Entry{"fig18", fig18},
    Entry{"fig19", fig19},   Entry{"fig20", fig20},   Entry{"fig21", fig21}, Entry{"obs2", obs2},
    Entry{"ext_checkpoint", ext_checkpoint},
    Entry{"ext_prediction", ext_prediction},
    Entry{"ext_temporal_locality", ext_temporal_locality},
    Entry{"ext_interruption", ext_interruption},
    Entry{"ablation", ablation},
};

}  // namespace

std::span<const Entry> entries() { return kEntries; }

const Entry* find_entry(std::string_view id) {
  const auto it = std::find_if(kEntries.begin(), kEntries.end(),
                               [&](const Entry& e) { return e.id == id; });
  return it == kEntries.end() ? nullptr : &*it;
}

}  // namespace titan::paper
