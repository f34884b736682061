// The paper reproduction driver: prints the paper module's entries, each
// with its [PASS]/[FAIL] shape checks, from one simulated default study.
//
//   bench_paper               every entry, in paper order
//   bench_paper fig02 obs2    only the named entries, in the given order
//
// Exit code: 0 when every check passed, 1 when any failed, 2 on an
// unknown id (the valid ids are listed on stderr).
#include <cstdio>
#include <vector>

#include "paper/paper.hpp"

int main(int argc, char** argv) {
  using namespace titan;
  std::vector<const paper::Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto* entry = paper::find_entry(argv[i]);
    if (entry == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown id '%s'; valid ids:", argv[i]);
      for (const auto& e : paper::entries()) {
        std::fprintf(stderr, " %.*s", static_cast<int>(e.id.size()), e.id.data());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(entry);
  }
  if (selected.empty()) {
    for (const auto& e : paper::entries()) selected.push_back(&e);
  }

  const paper::PaperInputs inputs;
  bool ok = true;
  for (const auto* entry : selected) {
    paper::Checks checks{entry->id};
    entry->fn(inputs, checks);
    ok &= checks.passed();
  }
  return ok ? 0 : 1;
}
