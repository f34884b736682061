// Fig. 1: physical organization of the Titan supercomputer.
#include "paper/paper.hpp"

#include "topology/machine.hpp"
#include "topology/thermal.hpp"
#include "topology/torus.hpp"

void titan::paper::fig01(const PaperInputs& /*in*/, Checks& checks) {
  using namespace titan::topology;

  print_header("Fig. 1 -- Physical organization of the Titan supercomputer");
  std::printf("  cabinets:        %d (%d x %d floor grid)\n", kCabinets, kCabinetGridX,
              kCabinetGridY);
  std::printf("  cages/cabinet:   %d    blades/cage: %d    nodes/blade: %d\n",
              kCagesPerCabinet, kBladesPerCage, kNodesPerBlade);
  std::printf("  node slots:      %d   service nodes: %d   GPU compute nodes: %d\n",
              kNodeSlots, kServiceNodes, kComputeNodes);
  std::printf("  Gemini routers:  %d (torus %d x %d x %d, 2 nodes each)\n", kGeminiCount,
              kTorusX, kTorusY, kTorusZ);
  std::printf("  folded-X order:  ");
  for (int t = 0; t < kTorusX; ++t) std::printf("%d ", folded_x_to_physical(t));
  std::printf("\n");
  const ThermalModel thermal;
  std::printf("  cage temps (F):  bottom %.1f / middle %.1f / top %.1f (delta %.1f)\n",
              thermal.nominal_gpu_temp_f({0, 0, 0, 0, 0}),
              thermal.nominal_gpu_temp_f({0, 0, 1, 0, 0}),
              thermal.nominal_gpu_temp_f({0, 0, 2, 0, 0}), thermal.top_to_bottom_delta_f());

  checks.check("18,688 GPU compute nodes", compute_node_count() == 18688);
  checks.check("200 cabinets in 25 x 8", kCabinets == 200);
  checks.check("9,600 Gemini routers", kGeminiCount == 9600);
  checks.check("top cage > 10 F hotter than bottom", thermal.top_to_bottom_delta_f() > 10.0);
  checks.check("cname round-trip (sample)",
               parse_cname(cname(12345)).has_value() &&
                   node_id(*parse_cname(cname(12345))) == 12345);
}
