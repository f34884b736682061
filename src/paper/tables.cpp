// Tables 1-2: the GPU hardware and software/firmware error taxonomies.
#include "paper/paper.hpp"

#include "xid/taxonomy.hpp"

namespace {

std::string cause_list(std::uint8_t causes) {
  using namespace titan::xid;
  std::string out;
  const auto add = [&](std::uint8_t flag, const char* name) {
    if ((causes & flag) == 0) return;
    if (!out.empty()) out += ", ";
    out += name;
  };
  add(kCauseDriver, "Driver");
  add(kCauseUserApp, "User App");
  add(kCauseFbCorruption, "Memory/FB Corruption");
  add(kCauseBusError, "Bus Error");
  add(kCauseThermal, "Thermal");
  add(kCauseHardware, "Hardware");
  add(kCauseSystemIntegration, "System Integration");
  return out;
}

}  // namespace

// Table 1: GPU hardware related errors.
void titan::paper::table1(const PaperInputs& /*in*/, Checks& checks) {
  print_header("Table 1 -- GPU hardware related errors");
  std::vector<std::vector<std::string>> rows;
  for (const auto kind : xid::table1_hardware()) {
    const auto& info = xid::info(kind);
    rows.push_back({std::string{info.name},
                    info.xid ? std::to_string(*info.xid) : std::string{"-"},
                    info.crashes_app ? "yes" : "no",
                    info.thermally_sensitive ? "yes" : "no"});
  }
  // XID 64 shares Table 1's retirement row ("63,64") in the paper.
  const std::vector<std::string> header{"GPU Error", "XID", "crashes app", "thermal"};
  print_block(render::table(header, rows));

  checks.check("8 hardware rows as in the paper", xid::table1_hardware().size() == 8);
  checks.check("SBE and OTB carry no XID code",
               !xid::info(xid::ErrorKind::kSingleBitError).xid &&
                   !xid::info(xid::ErrorKind::kOffTheBus).xid);
  checks.check("DBE is XID 48", xid::info(xid::ErrorKind::kDoubleBitError).xid == 48);
  checks.check("retirement XIDs are 63/64",
               xid::info(xid::ErrorKind::kPageRetirement).xid == 63 &&
                   xid::info(xid::ErrorKind::kPageRetirementFailed).xid == 64);
}

// Table 2: GPU software/firmware related errors.
void titan::paper::table2(const PaperInputs& /*in*/, Checks& checks) {
  print_header("Table 2 -- GPU software/firmware related errors");
  std::vector<std::vector<std::string>> rows;
  for (const auto kind : xid::table2_software()) {
    const auto& info = xid::info(kind);
    rows.push_back({std::string{info.name}, std::to_string(*info.xid),
                    cause_list(info.causes)});
  }
  const std::vector<std::string> header{"GPU Error", "XID", "possible cause"};
  print_block(render::table(header, rows));

  checks.check("12 software/firmware rows as in the paper", xid::table2_software().size() == 12);
  checks.check("XIDs 57/58 appear in both tables (ambiguous source)",
               xid::info(xid::ErrorKind::kVideoMemProgramming).klass ==
                       xid::ErrorClass::kAmbiguous &&
                   xid::info(xid::ErrorKind::kUnstableVideoMem).klass ==
                       xid::ErrorClass::kAmbiguous);
  checks.check("XID 13 lists user app among causes",
               (xid::info(xid::ErrorKind::kGraphicsEngineException).causes &
                xid::kCauseUserApp) != 0);
  checks.check("micro-controller halts are 59 (old) / 62 (new, thermal)",
               xid::info(xid::ErrorKind::kUcHaltOldDriver).xid == 59 &&
                   xid::info(xid::ErrorKind::kUcHaltNewDriver).xid == 62 &&
                   xid::info(xid::ErrorKind::kUcHaltNewDriver).thermally_sensitive);
}
