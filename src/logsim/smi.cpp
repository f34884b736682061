#include "logsim/smi.hpp"

#include <algorithm>
#include <cstddef>
#include <span>

namespace titan::logsim {

std::uint64_t SmiSnapshot::fleet_sbe_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.sbe_total;
  return total;
}

std::uint64_t SmiSnapshot::fleet_dbe_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.dbe_total;
  return total;
}

SmiSnapshot take_snapshot(const gpu::Fleet& fleet, stats::TimeSec when,
                          const topology::ThermalModel& thermal) {
  SmiSnapshot snap;
  snap.taken_at = when;
  snap.records.reserve(static_cast<std::size_t>(topology::kComputeNodes));
  for (topology::NodeId node = 0; node < topology::kNodeSlots; ++node) {
    const xid::CardId serial = fleet.ledger().card_at(node, when);
    if (serial == xid::kInvalidCard) continue;
    const gpu::GpuCard& card = fleet.card(serial);
    SmiCardRecord rec;
    rec.node = node;
    rec.serial = serial;
    rec.sbe_total = card.inforom().sbe_total();
    rec.dbe_total = card.inforom().dbe_total();
    rec.sbe_volatile = card.inforom().sbe_volatile();
    rec.dbe_volatile = card.inforom().dbe_volatile();
    rec.retired_pages_sbe = card.inforom().retired_page_count(gpu::RetireCause::kMultipleSbe);
    rec.retired_pages_dbe =
        card.inforom().retired_page_count(gpu::RetireCause::kDoubleBitError);
    rec.temperature_f = thermal.nominal_gpu_temp_f(topology::locate(node));
    snap.records.push_back(rec);
  }
  return snap;
}

std::vector<JobSbeRecord> per_job_sbe_counts(const std::vector<fault::SbeStrike>& strikes,
                                             const sched::JobTrace& trace,
                                             stats::TimeSec window_begin,
                                             stats::TimeSec window_end) {
  // CSR strike index for range counting, keyed by torus slot so a job's
  // placement runs are contiguous in it: slot k's strike times are
  // times[offsets[k], offsets[k + 1]), counting-sorted by slot and then
  // time-sorted within each slot.
  constexpr auto kSlots = static_cast<std::size_t>(topology::kNodeSlots);
  std::vector<std::size_t> offsets(kSlots + 1, 0);
  for (const auto& s : strikes) ++offsets[sched::torus_slot(s.node) + 1];
  for (std::size_t k = 0; k < kSlots; ++k) offsets[k + 1] += offsets[k];
  std::vector<stats::TimeSec> times(strikes.size());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& s : strikes) times[cursor[sched::torus_slot(s.node)]++] = s.time;
  }
  const auto slot_times = [&](std::size_t k) {
    return std::span{times}.subspan(offsets[k], offsets[k + 1] - offsets[k]);
  };
  for (std::size_t k = 0; k < kSlots; ++k) std::ranges::sort(slot_times(k));

  std::vector<JobSbeRecord> out;
  for (const auto& job : trace.jobs()) {
    if (job.start < window_begin || job.start >= window_end) continue;
    JobSbeRecord rec;
    rec.job = job.id;
    for (const auto& run : job.nodes.runs()) {
      for (std::size_t k = run.first; k < run.first + run.count; ++k) {
        const auto slot = slot_times(k);
        const auto lo = std::ranges::lower_bound(slot, job.start);
        const auto hi = std::ranges::lower_bound(slot, job.end);
        rec.sbe_count += static_cast<std::uint64_t>(hi - lo);
      }
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace titan::logsim
