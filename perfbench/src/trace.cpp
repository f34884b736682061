#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "study/json.hpp"

namespace perfbench {

int Tracer::open(std::string name) {
  const std::lock_guard lock{mu_};
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const std::lock_guard lock{mu_};
  if (open_.empty() || open_.back() != id) throw std::logic_error{"Tracer: unbalanced span"};
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s = now();
}

void Tracer::record(std::string name, int parent, double start_s, double end_s) {
  const std::lock_guard lock{mu_};
  spans_.push_back(Span{std::move(name), start_s, end_s, parent});
}

double Tracer::self_time(int id) const {
  std::vector<std::pair<double, double>> children;
  for (const auto& span : spans_) {
    if (span.parent == id) children.emplace_back(span.start_s, span.end_s);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = -1.0;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return duration(id) - covered;
}

void Tracer::write_json(const std::filesystem::path& path, const std::string& workload,
                        unsigned long long seed) const {
  using titan::study::JsonValue;
  auto spans = JsonValue::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    spans.push(JsonValue::object()
                   .set("id", i)
                   .set("name", s.name)
                   .set("start_s", s.start_s)
                   .set("end_s", s.end_s)
                   .set("parent", s.parent));
  }
  std::ofstream file{path, std::ios::binary};
  file << JsonValue::object().set("workload", workload).set("seed", seed).set("spans", spans).dump()
       << '\n';
  if (!file) throw std::runtime_error{"cannot write spans to " + path.string()};
}

}  // namespace perfbench
