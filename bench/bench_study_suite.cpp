// Study-layer suite bench: the full 21-month campaign through the
// frame-first pipeline -- one SimulatedSource load (simulate, parse view,
// frame build, ledger join), one AnalysisRegistry sweep over all ten
// analyses, and the rendered report.  Prints stage timings plus the
// determinism check the layer guarantees (a second sweep must reproduce
// the report bytes exactly).
#include <chrono>
#include <cstdio>

#include "paper/paper.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main() {
  using namespace titan;

  paper::print_header("Study suite: frame-first pipeline over the full campaign");

  auto start = std::chrono::steady_clock::now();
  const study::SimulatedSource source{core::default_config()};
  const auto context = source.load();
  const double load_s = seconds_since(start);

  const auto& registry = study::AnalysisRegistry::standard();
  start = std::chrono::steady_clock::now();
  const auto report = registry.run_all(context);
  const double sweep_s = seconds_since(start);

  std::printf("  load (simulate + parse view + frame build): %.2f s\n", load_s);
  std::printf("  registry sweep (%zu analyses, titan::par):   %.2f s\n",
              report.results.size(), sweep_s);
  std::printf("  events: %zu   frame rows: %zu   report: %zu text bytes, %zu json bytes\n",
              context.events.size(), context.frame.size(), report.text().size(),
              report.json().size());

  paper::print_header("Report");
  paper::print_block(report.text());

  paper::print_header("Checks");
  bool ok = true;
  ok &= paper::print_verdict("all ten analyses available on a simulated context",
                             report.results.size() == registry.names().size());
  const auto rerun = registry.run_all(context);
  ok &= paper::print_verdict("second sweep reproduces the report text bytes",
                             rerun.text() == report.text());
  ok &= paper::print_verdict("second sweep reproduces the report json bytes",
                             rerun.json() == report.json());
  ok &= paper::print_verdict("every section rendered non-empty text", [&] {
            for (const auto& result : report.results) {
              if (result.text.empty()) return false;
            }
            return true;
          }());
  return ok ? 0 : 1;
}
