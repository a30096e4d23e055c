// Execution-driven scheduler scaling: event-driven resident queues vs the
// O(cores x threads) scan scheduler, at Sniper-class core counts.
//
// The paper's EM2 design only becomes end-to-end results through the
// execution-driven simulator, and 1000-core meshes are the scale the
// claims are about.  The scan scheduler probes every thread on every core
// every cycle, so a sparse 1024-core run burns ~cores x threads probe
// iterations per simulated cycle; the event-driven scheduler pays only
// for cores that actually issue, and skips fully-stalled stretches via a
// wakeup heap.  This bench runs the *same workload* under both and
// reports wall time, simulated cycles, and the speedup — after asserting
// the two reports are identical (the equivalence contract, measured here
// at scale rather than just unit-tested on small meshes).
//
//   --cores=N               mesh size (near-square), default 1024
//   --threads=N             thread count (sparse vs cores), default 64
//   --blocks-per-thread=N   loads each thread performs, default 256
//   --max-cycles=N          cycle budget, default 50000000
//   --skip-scan             only run the event-driven scheduler (CI smoke)
//   --arch=em2|em2ra|cc     memory architecture, default em2
//   --json                  one flat JSON object per scheduler row
//                           (accesses_per_sec counts each thread's loads
//                           plus its one result store)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/exec_system.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

em2::RProgram sum_program(em2::Addr base, std::int32_t n, em2::Addr result) {
  em2::RAsm a;
  a.addi(1, 0, 0);
  a.addi(2, 0, static_cast<std::int32_t>(base));
  a.addi(3, 0, n);
  const std::int32_t loop = a.here();
  a.lw(4, 2, 0).add(1, 1, 4).addi(2, 2, 64).addi(3, 3, -1);
  const std::int32_t br = a.here();
  a.bne(3, 0, 0);
  a.patch_imm(br, loop - (br + 1));
  a.addi(5, 0, static_cast<std::int32_t>(result));
  a.sw(1, 5, 0);
  a.halt();
  return a.build();
}

struct RunResult {
  em2::ExecReport report;
  double seconds = 0.0;
};

RunResult run_once(em2::SchedulerKind sched, em2::MemArch arch,
                   std::int32_t cores, std::int32_t threads,
                   std::int32_t blocks, em2::Cycle max_cycles) {
  const em2::Mesh mesh = em2::Mesh::near_square(cores);
  const em2::CostModel cost(mesh, em2::CostModelParams{});
  em2::Placement placement = em2::Placement::striped(mesh.num_cores());
  em2::ExecParams params;
  params.arch = arch;
  params.scheduler = sched;
  em2::ExecSystem sys(mesh, cost, params, placement);
  for (std::int32_t t = 0; t < threads; ++t) {
    const em2::Addr base =
        0x1000000 + static_cast<em2::Addr>(t) * 0x100000;
    for (std::int32_t i = 0; i < blocks; ++i) {
      sys.poke(base + static_cast<em2::Addr>(i) * 64,
               static_cast<std::uint32_t>(i + t));
    }
    sys.add_thread(sum_program(base, blocks,
                               0x10 + static_cast<em2::Addr>(t) * 64),
                   static_cast<em2::CoreId>((t * 31) % mesh.num_cores()));
  }
  const auto start = std::chrono::steady_clock::now();
  RunResult r;
  r.report = sys.run(max_cycles);
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  return r;
}

bool reports_match(const em2::ExecReport& a, const em2::ExecReport& b) {
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         a.consistent == b.consistent && a.timed_out == b.timed_out &&
         a.finish_cycle == b.finish_cycle &&
         a.counters.all() == b.counters.all();
}

void emit(const char* sched, const RunResult& r, em2::MemArch arch,
          std::int32_t cores, std::int32_t threads, std::int32_t blocks,
          bool json, double speedup, bool equivalent) {
  // Every thread loads `blocks` words and stores its sum once.
  const double accesses = static_cast<double>(threads) * (blocks + 1);
  if (json) {
    em2::JsonWriter w;
    w.add("bench", "exec_scaling")
        .add("scheduler", sched)
        .add("arch", em2::to_string(arch))
        .add("cores", static_cast<std::int64_t>(cores))
        .add("threads", static_cast<std::int64_t>(threads))
        .add("blocks_per_thread", static_cast<std::int64_t>(blocks))
        .add("cycles", r.report.cycles)
        .add("instructions", r.report.instructions)
        .add("consistent", r.report.consistent)
        .add("timed_out", r.report.timed_out)
        .add("wall_seconds", r.seconds)
        .add("sim_cycles_per_sec",
             r.seconds > 0.0
                 ? static_cast<double>(r.report.cycles) / r.seconds
                 : 0.0)
        .add("accesses_per_sec",
             r.seconds > 0.0 ? accesses / r.seconds : 0.0);
    if (speedup > 0.0) {
      w.add("speedup_vs_scan", speedup)
          .add("reports_identical", equivalent);
    }
    w.print();
  } else {
    std::printf("%-6s  %8.3f s   %12llu cycles   %12llu instr   %s%s\n",
                sched, r.seconds,
                static_cast<unsigned long long>(r.report.cycles),
                static_cast<unsigned long long>(r.report.instructions),
                r.report.consistent ? "consistent" : "INCONSISTENT",
                r.report.timed_out ? " (timed out)" : "");
    if (speedup > 0.0) {
      std::printf("        speedup vs scan: %.1fx, reports %s\n", speedup,
                  equivalent ? "identical" : "DIVERGED");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const auto cores = static_cast<std::int32_t>(args.get_int("cores", 1024));
  const auto threads =
      static_cast<std::int32_t>(args.get_int("threads", 64));
  const auto blocks =
      static_cast<std::int32_t>(args.get_int("blocks-per-thread", 256));
  const auto max_cycles =
      static_cast<em2::Cycle>(args.get_int("max-cycles", 50'000'000));
  const bool skip_scan = args.has("skip-scan");
  const bool json = args.has("json");
  const std::string arch_name = args.get_string("arch", "em2");
  const auto parsed_arch = em2::parse_mem_arch(arch_name);
  if (!parsed_arch) {
    std::fprintf(stderr, "unknown arch '%s' (known: em2, em2-ra, cc)\n",
                 arch_name.c_str());
    return 1;
  }
  const em2::MemArch arch = *parsed_arch;

  if (!json) {
    std::printf(
        "=== exec scheduler scaling (%s, %d cores, %d threads, %d loads "
        "each) ===\n",
        em2::to_string(arch), cores, threads, blocks);
  }

  const RunResult event = run_once(em2::SchedulerKind::kEventDriven, arch,
                                   cores, threads, blocks, max_cycles);
  if (skip_scan) {
    emit("event", event, arch, cores, threads, blocks, json, 0.0, false);
    return event.report.consistent ? 0 : 1;
  }

  const RunResult scan = run_once(em2::SchedulerKind::kScan, arch, cores,
                                  threads, blocks, max_cycles);
  const bool equivalent = reports_match(scan.report, event.report);
  const double speedup =
      event.seconds > 0.0 ? scan.seconds / event.seconds : 0.0;
  emit("scan", scan, arch, cores, threads, blocks, json, 0.0, false);
  emit("event", event, arch, cores, threads, blocks, json, speedup,
       equivalent);
  if (!equivalent) {
    std::fprintf(stderr,
                 "ERROR: event-driven report diverged from scan report\n");
    return 1;
  }
  return event.report.consistent ? 0 : 1;
}
