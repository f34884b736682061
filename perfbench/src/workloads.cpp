#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using titan::study::AnalysisRegistry;
using titan::study::DatasetSource;
using titan::study::SimulatedSource;
using titan::study::StudyContext;

namespace {

constexpr std::string_view kNames[] = {"simulate-study", "generate-sharded", "query-dataset"};

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream file{path, std::ios::binary};
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) throw std::runtime_error{"cannot write " + path.string()};
}

Rendered analyze(Workload w, const StudyContext& context) {
  return render(AnalysisRegistry::standard().run(context, selection(w, context)));
}

}  // namespace

Workload parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (kNames[i] == name) return static_cast<Workload>(i);
  }
  throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
}

std::string_view workload_name(Workload w) { return kNames[static_cast<std::size_t>(w)]; }

Rendered render(const titan::study::StudyReport& report) {
  return Rendered{report.text(), report.json()};
}

std::vector<std::string> selection(Workload w, const StudyContext& context) {
  if (w == Workload::kQueryDataset) return {"frequency"};
  return AnalysisRegistry::standard().available(context);
}

void setup(Workload w, const titan::core::FacilityConfig& config, const Fixture& fixture) {
  fs::create_directories(fixture.dir);
  // simulate-study needs no fixture: its reference is the ops process's
  // serial warm-up op.
  if (w == Workload::kSimulateStudy) return;
  const auto simulated = SimulatedSource{config}.load();
  if (w == Workload::kQueryDataset) {
    titan::study::write_dataset(simulated, fixture.data(), titan::study::DatasetFormat::kBinary);
  } else {
    (void)titan::study::generate_sharded_dataset(config, kShards, fixture.data());
  }
  const auto loaded = DatasetSource{fixture.data()}.load();
  // The cross-source identity: a dataset's report equals the simulated
  // study's report on the analyses the dataset supports.
  const auto sel = selection(w, loaded);
  const auto available = AnalysisRegistry::standard().available(loaded);
  for (const auto& name : sel) {
    if (std::find(available.begin(), available.end(), name) == available.end()) {
      throw std::runtime_error{"the dataset cannot run " + name};
    }
  }
  const auto reference = render(AnalysisRegistry::standard().run(simulated, sel));
  if (w == Workload::kGenerateSharded && analyze(w, loaded) != reference) {
    throw std::runtime_error{"the generated dataset does not load to the reference report"};
  }
  write_reference(fixture, reference);
}

OpOutput run_op(Workload w, const titan::core::FacilityConfig& config, const Fixture& fixture,
                std::size_t op) {
  OpOutput out;
  if (w == Workload::kGenerateSharded) {
    const auto dir = fixture.out(op);
    fs::remove_all(dir);
    const auto start = std::chrono::steady_clock::now();
    const auto stats = titan::study::generate_sharded_dataset(config, kShards, dir);
    out.seconds = seconds_since(start);
    out.events = stats.events;
    out.data_bytes = dir_bytes(dir);
    return out;
  }
  const auto start = std::chrono::steady_clock::now();
  {
    const auto context = w == Workload::kSimulateStudy ? SimulatedSource{config}.load()
                                                       : DatasetSource{fixture.data()}.load();
    out.report = analyze(w, context);
    out.events = context.events.size();
    if (context.truth) {
      for (const auto& line : context.truth->console_log) out.data_bytes += line.size() + 1;
    }
  }
  out.seconds = seconds_since(start);
  if (w != Workload::kSimulateStudy) out.data_bytes = dir_bytes(fixture.data());
  return out;
}

std::string check_op(Workload w, const Fixture& fixture, std::size_t op, const OpOutput& output,
                     const Rendered& reference) {
  if (w != Workload::kGenerateSharded) {
    return output.report == reference ? std::string{} : "report differs from the reference";
  }
  // The reference dataset was proven in setup to load strictly to the
  // reference report, so byte identity with it carries that proof over.
  auto problem = compare_dirs(fixture.out(op), fixture.data());
  fs::remove_all(fixture.out(op));
  return problem;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void write_reference(const Fixture& fixture, const Rendered& reference) {
  write_file(fixture.ref_text(), reference.text);
  write_file(fixture.ref_json(), reference.json);
}

Rendered read_reference(const Fixture& fixture) {
  return Rendered{titan::study::read_all(fixture.ref_text()),
                  titan::study::read_all(fixture.ref_json())};
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string compare_dirs(const fs::path& dir, const fs::path& reference) {
  std::map<std::string, fs::path> want;
  std::map<std::string, fs::path> got;
  for (const auto& e : fs::directory_iterator{reference}) want[e.path().filename()] = e.path();
  for (const auto& e : fs::directory_iterator{dir}) {
    const auto name = e.path().filename().string();
    if (e.path().extension() == ".tmp") return "orphan " + name;
    got[name] = e.path();
  }
  if (got.size() != want.size()) return "file set differs from the reference";
  for (const auto& [name, path] : want) {
    const auto it = got.find(name);
    if (it == got.end()) return "missing " + name;
    if (titan::study::read_all(it->second) != titan::study::read_all(path)) {
      return name + " differs from the reference";
    }
  }
  return {};
}

}  // namespace perfbench
