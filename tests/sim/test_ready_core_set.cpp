// The event scheduler's ready-core bitset: the walk order it promises
// (ascending, re-read after every step, so cores readied ahead of the
// cursor issue this cycle and cores at or behind it next cycle), and
// scan-identical reports on a 128-core mesh whose same-cycle migrations
// land on the bitset's word boundaries (cores 63, 64 and 127) from
// sources both ahead of and behind the destination, with and without a
// core-stall fault window.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_system.hpp"
#include "sim/faults.hpp"

namespace em2 {
namespace {

std::vector<CoreId> walk(const ReadyCoreSet& s) {
  std::vector<CoreId> out;
  for (CoreId c = s.next_after(-1); c != kNoCore; c = s.next_after(c)) {
    out.push_back(c);
  }
  return out;
}

TEST(ReadyCoreSet, WalksAscendingAcrossWordBoundaries) {
  ReadyCoreSet s;
  s.reset(130);
  EXPECT_EQ(s.next_after(-1), kNoCore);
  for (const CoreId c : {129, 64, 0, 127, 63, 128, 1}) {
    s.insert(c);
  }
  EXPECT_EQ(walk(s), (std::vector<CoreId>{0, 1, 63, 64, 127, 128, 129}));
  EXPECT_EQ(s.next_after(63), 64);
  EXPECT_EQ(s.next_after(64), 127);
  EXPECT_EQ(s.next_after(129), kNoCore);
  s.erase(64);
  s.erase(0);
  EXPECT_EQ(walk(s), (std::vector<CoreId>{1, 63, 127, 128, 129}));
  s.reset(130);
  EXPECT_TRUE(walk(s).empty());
}

TEST(ReadyCoreSet, CoresReadiedAheadOfTheCursorJoinTheSameWalk) {
  ReadyCoreSet s;
  s.reset(128);
  s.insert(10);
  s.insert(100);
  std::vector<CoreId> visited;
  for (CoreId c = s.next_after(-1); c != kNoCore; c = s.next_after(c)) {
    visited.push_back(c);
    if (c == 10) {
      s.insert(64);   // ahead of the cursor: visited this walk
      s.insert(5);    // behind it: waits for the next walk
      s.insert(10);   // the cursor itself stays for the next walk
      s.erase(100);   // went unready before the walk reached it
    }
  }
  EXPECT_EQ(visited, (std::vector<CoreId>{10, 64}));
  EXPECT_EQ(walk(s), (std::vector<CoreId>{5, 10, 64}));
}

/// Address of word `slot` homed at `home` under striping over 128 cores.
Addr homed_at(CoreId home, std::int32_t slot) {
  return (static_cast<Addr>(slot) * 128 + static_cast<Addr>(home)) * 64;
}

struct Traveller {
  CoreId native;
  std::vector<CoreId> homes;  // visited in order, one load each
};

/// Every thread runs the same instruction count before each load, so the
/// loads of all threads issue in the same cycle and their migrations land
/// together on the word-boundary cores.
const std::vector<Traveller>& travellers() {
  static const std::vector<Traveller> kTravellers = {
      {0, {63, 64, 127}},    // sources below every destination
      {10, {64, 127, 63}},
      {62, {127, 63, 64}},
      {65, {63, 127, 64}},   // above 63, below 127
      {100, {63, 64, 127}},  // behind the cursor for 63 and 64
      {126, {64, 63, 127}},
      {127, {63, 64, 0}},    // the last core migrates backwards
      {64, {127, 127, 63}},  // 64 itself leaves and returns
      {63, {64, 64, 127}},
  };
  return kTravellers;
}

struct Outcome {
  ExecReport report;
  std::uint64_t faults_injected = 0;
};

Outcome run_travellers(MemArch arch, SchedulerKind sched,
                       const std::string& faults) {
  const Mesh mesh(16, 8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  std::optional<FaultInjector> injector;
  if (!faults.empty()) {
    injector.emplace(fault_spec_from_string(faults), mesh.num_cores());
  }
  ExecParams params;
  params.arch = arch;
  params.scheduler = sched;
  params.em2.guest_contexts = 1;  // same-cycle arrivals evict each other
  params.faults = injector ? &*injector : nullptr;
  ExecSystem sys(mesh, cost, params, placement);
  const auto& ts = travellers();
  for (std::size_t t = 0; t < ts.size(); ++t) {
    RAsm a;
    a.addi(1, 0, 0);
    for (std::size_t i = 0; i < ts[t].homes.size(); ++i) {
      const auto slot = static_cast<std::int32_t>(t * 4 + i);
      const Addr addr = homed_at(ts[t].homes[i], slot);
      sys.poke(addr, static_cast<std::uint32_t>(7 * t + i + 1));
      a.lw(2, 0, static_cast<std::int32_t>(addr)).add(1, 1, 2);
    }
    a.sw(1, 0, static_cast<std::int32_t>(homed_at(ts[t].native, 100)));
    a.halt();
    sys.add_thread(std::move(a).build(), ts[t].native);
  }
  Outcome out;
  out.report = sys.run(1'000'000);
  out.faults_injected = injector ? injector->stats().injected : 0;
  return out;
}

void expect_identical(const Outcome& scan_run, const Outcome& event_run,
                      const std::string& what) {
  const ExecReport& scan = scan_run.report;
  const ExecReport& event = event_run.report;
  EXPECT_EQ(scan_run.faults_injected, event_run.faults_injected) << what;
  EXPECT_EQ(scan.cycles, event.cycles) << what;
  EXPECT_EQ(scan.instructions, event.instructions) << what;
  EXPECT_EQ(scan.consistent, event.consistent) << what;
  EXPECT_EQ(scan.timed_out, event.timed_out) << what;
  EXPECT_EQ(scan.finish_cycle, event.finish_cycle) << what;
  EXPECT_EQ(scan.violations.size(), event.violations.size()) << what;
  EXPECT_EQ(scan.counters.all(), event.counters.all()) << what;
}

TEST(ReadyCoreSetScheduling, WordBoundaryMigrationsMatchScan) {
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    const Outcome scan = run_travellers(arch, SchedulerKind::kScan, "");
    EXPECT_TRUE(scan.report.consistent) << to_string(arch);
    if (arch == MemArch::kEm2) {
      EXPECT_GT(scan.report.counters.get("migrations"), 0u);
      EXPECT_GT(scan.report.counters.get("evictions"), 0u);
    }
    expect_identical(scan,
                     run_travellers(arch, SchedulerKind::kEventDriven, ""),
                     to_string(arch));
  }
}

TEST(ReadyCoreSetScheduling, StalledCoresKeepTheirBitAndMatchScan) {
  // Short stall windows freeze some destination cores while arrivals are
  // ready there: the event walk must skip them with their bit kept, in
  // the scan scheduler's exact (core, window) draw order.
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra}) {
    const std::string faults = "stall=0.5:3,seed=7";
    const Outcome scan = run_travellers(arch, SchedulerKind::kScan, faults);
    EXPECT_GT(scan.faults_injected, 0u) << to_string(arch);
    expect_identical(scan,
                     run_travellers(arch, SchedulerKind::kEventDriven, faults),
                     std::string(to_string(arch)) + " stall");
  }
}

}  // namespace
}  // namespace em2
