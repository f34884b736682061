// titanrel_perfbench: the processes behind perfbench/run.py.
//
//   titanrel_perfbench setup --workload W --seed N --dir D [--config quick]
//   titanrel_perfbench ops   --workload W --seed N --dir D [--config quick] --seconds S
//   titanrel_perfbench trace --workload W --seed N --dir D [--config quick] --spans FILE
//
// N is the study seed.  `setup` builds the fixture and reference outputs
// in D.  `ops` runs one untimed, serial warm-up operation and then timed
// operations back to back for S seconds, checking each one, with a
// machine-speed probe between them.
// `trace` runs one traced operation, then times its replayed stage
// against the library call it replays.  Each prints one JSON object as its
// last line of standard output.  Setup, the timed ops and the traced op
// run in separate processes, so each process's peak RSS is its own.
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "par/pool.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "study/json.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using titan::study::JsonValue;

struct Args {
  std::string mode;
  Workload workload = Workload::kSimulateStudy;
  unsigned long long seed = 0;
  fs::path dir;
  bool quick = false;
  double seconds = 1.0;
  fs::path spans;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"usage: titanrel_perfbench setup|ops|trace ..."};
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = parse_workload(value);
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--config") {
      if (value != "quick" && value != "default") throw std::invalid_argument{"bad --config"};
      a.quick = value == "quick";
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--spans") {
      a.spans = value;

    } else {
      throw std::invalid_argument{"unknown flag " + std::string{flag}};
    }
  }
  if (a.dir.empty()) throw std::invalid_argument{"--dir is required"};
  return a;
}

int cmd_setup(const Args& a, const titan::core::FacilityConfig& config) {
  const Fixture fixture{a.dir};
  fs::remove_all(fixture.dir);
  const auto start = std::chrono::steady_clock::now();
  setup(a.workload, config, fixture);
  std::printf("%s\n", JsonValue::object().set("fixture_s", seconds_since(start)).dump().c_str());
  return 0;
}

int cmd_ops(const Args& a, const titan::core::FacilityConfig& config) {
  const Fixture fixture{a.dir};
  const auto width = titan::par::thread_count();
  std::vector<std::string> problems;
  double bytes_per_event = 0.0;

  // Runs and checks one op; its time, or nothing when it failed.  With no
  // reference, the op's report becomes the reference.
  const auto one = [&](std::size_t op, const Rendered* reference) -> std::optional<double> {
    try {
      const auto out = run_op(a.workload, config, fixture, op);
      if (out.events > 0) {
        bytes_per_event = static_cast<double>(out.data_bytes) / static_cast<double>(out.events);
      }
      if (reference == nullptr) {
        write_reference(fixture, out.report);
        return out.seconds;
      }
      auto problem = check_op(a.workload, fixture, op, out, *reference);
      if (problem.empty()) return out.seconds;
      problems.push_back("op " + std::to_string(op) + ": " + problem);
    } catch (const std::exception& e) {
      problems.push_back("op " + std::to_string(op) + ": " + e.what());
    }
    return std::nullopt;
  };

  // op 0 is the untimed warm-up.  It runs serially, so the peak RSS read
  // right after it is the op's own and the same on every run (at width 4
  // the allocator's per-thread arenas make it vary by tens of MiB).  For
  // simulate-study its report is the width-1 reference every timed op must
  // match; the other workloads check it against setup's reference.
  const bool makes_reference = a.workload == Workload::kSimulateStudy;
  const Rendered setup_reference = makes_reference ? Rendered{} : read_reference(fixture);
  titan::par::set_threads(1);
  const auto warmup_s = one(0, makes_reference ? nullptr : &setup_reference);
  const double warmup_peak_rss_mib = peak_rss_mib();
  titan::par::set_threads(width);

  const Rendered reference = read_reference(fixture);
  // The machine-speed probe (probe.hpp) runs between ops, for 2% of the
  // last op's time and once at least.  Its working set is built after the
  // warm-up's peak RSS is read, so that it does not count in peak_rss_mib.
  Probe probe;
  std::vector<double> probe_s;
  const auto run_probes = [&](double op_seconds) {
    constexpr double kProbeShare = 0.02;
    const auto from = std::chrono::steady_clock::now();
    do {
      probe_s.push_back(probe.once());
    } while (seconds_since(from) < kProbeShare * op_seconds);
  };

  std::vector<double> times;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  run_probes(warmup_s.value_or(0.0));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t op = 1; op == 1 || seconds_since(start) < a.seconds; ++op) {
    const auto secs = one(op, &reference);
    ++attempted;
    if (secs) {
      times.push_back(*secs);
    } else {
      ++failed;
    }
    run_probes(secs.value_or(0.0));
  }

  auto problem_list = JsonValue::array();
  for (std::size_t i = 0; i < problems.size() && i < 5; ++i) problem_list.push(problems[i]);
  const auto list = [](const std::vector<double>& values) {
    auto array = JsonValue::array();
    for (const double v : values) array.push(v);
    return array;
  };
  // The high-water mark after the timed ops at the pinned width is printed
  // but not gated: allocator arenas make it vary from run to run.
  std::printf("%s\n", JsonValue::object()
                          .set("warmup_ok", warmup_s.has_value())
                          .set("warmup_s", warmup_s.value_or(0.0))
                          .set("op_s", list(times))
                          .set("probe_s", list(probe_s))
                          .set("attempted", attempted)
                          .set("failed", failed)
                          .set("peak_rss_mib", warmup_peak_rss_mib)
                          .set("timed_peak_rss_mib", peak_rss_mib())
                          .set("bytes_per_event", bytes_per_event)
                          .set("pool_width", width)
                          .set("problems", problem_list)
                          .dump()
                          .c_str());
  return 0;
}

int cmd_trace(const Args& a, const titan::core::FacilityConfig& config) {
  const Fixture fixture{a.dir};
  Tracer tracer;
  const auto result = run_traced(a.workload, config, fixture, read_reference(fixture), tracer);
  if (!a.spans.empty()) {
    tracer.write_json(a.spans, std::string{workload_name(a.workload)}, a.seed);
  }
  const auto replay = time_replay(a.workload, config, fixture, /*min_seconds=*/6.0);
  auto layers = JsonValue::object();
  for (const auto& m : result.layers) {
    layers.set(m.name, JsonValue::object().set("value", m.value).set("unit", m.unit));
  }
  std::printf("%s\n", JsonValue::object()
                          .set("ok", result.problem.empty())
                          .set("problem", result.problem)
                          .set("op_wall_s", result.op_wall_s)
                          .set("pool_width", titan::par::thread_count())
                          .set("replay", JsonValue::object()
                                             .set("stage", replay.stage)
                                             .set("replay_s", replay.replay_s)
                                             .set("library_s", replay.library_s)
                                             .set("ratio", replay.ratio)
                                             .set("pairs", replay.pairs))
                          .set("layers", layers)
                          .dump()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const auto config =
        a.quick ? titan::core::quick_config(a.seed) : titan::core::default_config(a.seed);
    if (a.mode == "setup") return cmd_setup(a, config);
    if (a.mode == "ops") return cmd_ops(a, config);
    if (a.mode == "trace") return cmd_trace(a, config);
    throw std::invalid_argument{"unknown mode " + a.mode};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "titanrel_perfbench: %s\n", e.what());
    return 1;
  }
}
