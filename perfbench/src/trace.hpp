// Span recorder for the traced run.
//
// Spans are recorded from outside the library, around calls into each
// layer's public functions.  They stay in memory for the whole run and
// are written once, when the run ends.  A span's self time is its
// duration minus the part of its interval that its children cover.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index into spans(), -1 for a root
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  /// Open a span on the calling (main) thread; its parent is the
  /// innermost span still open there.
  int open(std::string name);
  void close(int id);

  /// Record a finished span measured on another thread (a kernel in the
  /// parallel sweep) under an explicit parent.  Thread-safe.
  void record(std::string name, int parent, double start_s, double end_s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int id) const {
    const auto& span = spans_[static_cast<std::size_t>(id)];
    return span.end_s - span.start_s;
  }
  /// Duration minus the union of the children's intervals.
  [[nodiscard]] double self_time(int id) const;

  /// Write every span as JSON: name, start, end, parent.
  void write_json(const std::filesystem::path& path, const std::string& workload,
                  unsigned long long seed) const;

 private:
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::mutex mu_;  ///< guards spans_ for record()
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< main-thread stack of open spans
};

/// RAII span on the main thread.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_{tracer}, id_{tracer.open(std::move(name))} {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
