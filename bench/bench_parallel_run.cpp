// Sharded single-run scaling: one execution-driven simulation spread
// across host threads by the relaxed-synchronization engine (skew > 0),
// vs the same workload on the sequential event-driven engine.
//
// The relaxed engine trades cross-shard timing precision (bounded by the
// skew window) for wall-clock speed — the speedup leg of the paper-scale
// story: a 1000-core EM2 run that saturates one host core sharded over
// four.  Each relaxed row reports both sides of that trade:
// "speedup_vs_sequential" (wall clock) and "cycles_vs_sequential"
// (simulated cycles relative to the sequential reference, the timing
// error the quantum introduces).  The shards=1/skew=0 row is that
// sequential reference.
//
// The workload keeps each thread's gather mostly inside the shard that
// owns its native core (striped placement homes block b at core b % N,
// and shards own contiguous core ranges, so a contiguous block window is
// a contiguous home window) plus a far sweep into the diagonally
// opposite quarter so the quantum barriers actually carry traffic.
//
//   --cores=N               mesh size (near-square), default 1024
//   --threads=N             thread count, default 256
//   --blocks-per-thread=N   local-gather loads per thread, default 224
//   --far-blocks=N          cross-mesh loads per thread, default 16
//   --repeats=N             double-sweep repetitions per thread, default 24
//   --skew=N                relaxed-mode quantum in cycles, default 1000
//   --max-cycles=N          cycle budget, default 50000000
//   --arch=em2|em2ra        memory architecture, default em2
//   --policy=SPEC           em2ra decision policy, default distance:4;
//                           stateful specs (history:N[:C], cost-estimate)
//                           exercise the fork/merge shard contract on the
//                           relaxed legs
//   --shards=a,b,c          shard counts to run, default 2,4,8
//   --json                  one flat JSON object per row
//
// Each relaxed leg runs twice and the two reports must match — the
// fixed-(shards, skew) determinism the relaxed engine promises — emitted
// as "relaxed_deterministic".  On a host with one hardware thread the
// worker pool degenerates to the calling thread, so sharded legs can
// only lose; such rows carry "serialized": true, which the regression
// checker treats as exempt (tools/check_bench_regression) — the numbers
// are still printed, they just stop gating.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "sim/exec_system.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

/// Sums `n_local` words starting at `local_base` and `n_far` words at
/// `far_base` (stride 64B each) into memory at `result`, repeating the
/// whole double sweep `repeats` times.  The repeat loop multiplies work
/// without widening the block window — the local sweep must stay inside
/// one home quarter for the run to shard well.
em2::RProgram gather_program(em2::Addr local_base, std::int32_t n_local,
                             em2::Addr far_base, std::int32_t n_far,
                             std::int32_t repeats, em2::Addr result) {
  em2::RAsm a;
  a.addi(1, 0, 0);
  a.addi(6, 0, repeats);
  const std::int32_t outer = a.here();
  for (const auto& [base, n] :
       {std::pair<em2::Addr, std::int32_t>{local_base, n_local},
        std::pair<em2::Addr, std::int32_t>{far_base, n_far}}) {
    if (n == 0) {  // the gather loop is do-while shaped
      continue;
    }
    a.addi(2, 0, static_cast<std::int32_t>(base));
    a.addi(3, 0, n);
    const std::int32_t loop = a.here();
    a.lw(4, 2, 0).add(1, 1, 4).addi(2, 2, 64).addi(3, 3, -1);
    const std::int32_t br = a.here();
    a.bne(3, 0, 0);
    a.patch_imm(br, loop - (br + 1));
  }
  a.addi(6, 6, -1);
  const std::int32_t back = a.here();
  a.bne(6, 0, 0);
  a.patch_imm(back, outer - (back + 1));
  a.addi(5, 0, static_cast<std::int32_t>(result));
  a.sw(1, 5, 0);
  a.halt();
  return a.build();
}

struct BenchConfig {
  em2::MemArch arch = em2::MemArch::kEm2;
  std::string policy = "distance:4";
  std::int32_t cores = 1024;
  std::int32_t threads = 256;
  std::int32_t blocks = 224;
  std::int32_t far_blocks = 16;
  std::int32_t repeats = 24;
  em2::Cycle skew = 1000;
  em2::Cycle max_cycles = 50'000'000;
  bool serialized = false;  // host has one hardware thread
};

struct RunResult {
  em2::ExecReport report;
  double seconds = 0.0;
};

/// Home window of thread `t`: a contiguous block range inside the quarter
/// of the mesh holding its native core, so the sweep stays shard-local
/// for shard counts up to 4 (and mostly local above).
/// Quarter of thread `t`.  Contiguous thread-id chunks per quarter keep
/// each shard's slice of the per-thread engine arrays contiguous too —
/// interleaved ids would false-share every cache line of them across
/// shard workers.
std::int32_t quarter_of(const BenchConfig& cfg, std::int32_t t) {
  return t * 4 / cfg.threads % 4;
}

em2::Addr local_base_of(const BenchConfig& cfg, std::int32_t t) {
  const std::int32_t quarter = cfg.cores / 4;
  const std::int32_t q = quarter_of(cfg, t);
  // Distinct address windows per thread (bit 24+) that share the same
  // home window (low bits mod cores pick the home core).
  const em2::Addr window = 0x1000000 + (static_cast<em2::Addr>(t) << 25);
  return window + static_cast<em2::Addr>(q * quarter) * 64;
}

em2::Addr far_base_of(const BenchConfig& cfg, std::int32_t t) {
  const std::int32_t quarter = cfg.cores / 4;
  const std::int32_t q = (quarter_of(cfg, t) + 2) % 4;  // opposite quarter
  const em2::Addr window = 0x1000000 + (static_cast<em2::Addr>(t) << 25) +
                           (1u << 24);
  return window + static_cast<em2::Addr>(q * quarter) * 64;
}

em2::CoreId native_core_of(const BenchConfig& cfg, std::int32_t t) {
  const std::int32_t quarter = cfg.cores / 4;
  // Native core inside the thread's own quarter, spread across it.
  return static_cast<em2::CoreId>(quarter_of(cfg, t) * quarter +
                                  (t * 13) % quarter);
}

RunResult run_once(const BenchConfig& cfg, std::uint32_t shards,
                   em2::Cycle skew) {
  const em2::Mesh mesh = em2::Mesh::near_square(cfg.cores);
  const em2::CostModel cost(mesh, em2::CostModelParams{});
  em2::Placement placement = em2::Placement::striped(mesh.num_cores());
  em2::ExecParams params;
  params.arch = cfg.arch;
  params.ra_policy = cfg.policy;
  params.scheduler = em2::SchedulerKind::kEventDriven;
  params.shards = shards;
  params.skew = skew;
  em2::ExecSystem sys(mesh, cost, params, placement);
  for (std::int32_t t = 0; t < cfg.threads; ++t) {
    const em2::Addr lbase = local_base_of(cfg, t);
    const em2::Addr fbase = far_base_of(cfg, t);
    for (std::int32_t i = 0; i < cfg.blocks; ++i) {
      sys.poke(lbase + static_cast<em2::Addr>(i) * 64,
               static_cast<std::uint32_t>(3 * i + t));
    }
    for (std::int32_t i = 0; i < cfg.far_blocks; ++i) {
      sys.poke(fbase + static_cast<em2::Addr>(i) * 64,
               static_cast<std::uint32_t>(5 * i + t));
    }
    sys.add_thread(gather_program(lbase, cfg.blocks, fbase, cfg.far_blocks,
                                  cfg.repeats,
                                  0x10 + static_cast<em2::Addr>(t) * 64),
                   native_core_of(cfg, t));
  }
  const auto start = std::chrono::steady_clock::now();
  RunResult r;
  r.report = sys.run(cfg.max_cycles);
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

/// Prints one row.  Relaxed rows pass the sequential reference `seq`
/// (null for the reference row itself) and their repeat determinism.
void emit(const BenchConfig& cfg, std::uint32_t shards, em2::Cycle skew,
          const RunResult& r, bool json, const RunResult* seq = nullptr,
          bool deterministic = false) {
  const std::uint64_t accesses = r.report.counters.get("accesses");
  const double rate =
      r.seconds > 0.0 ? static_cast<double>(accesses) / r.seconds : 0.0;
  const double speedup =
      seq != nullptr && r.seconds > 0.0 ? seq->seconds / r.seconds : 0.0;
  const double cycle_ratio =
      seq != nullptr && seq->report.cycles > 0
          ? static_cast<double>(r.report.cycles) /
                static_cast<double>(seq->report.cycles)
          : 0.0;
  if (json) {
    em2::JsonWriter w;
    w.add("bench", "parallel_run")
        .add("arch", em2::to_string(cfg.arch))
        .add("cores", static_cast<std::int64_t>(cfg.cores))
        .add("threads", static_cast<std::int64_t>(cfg.threads))
        .add("shards", static_cast<std::int64_t>(shards))
        .add("skew", static_cast<std::int64_t>(skew));
    if (cfg.arch == em2::MemArch::kEm2Ra) {
      w.add("policy", cfg.policy);
    }
    if (cfg.serialized) {
      w.add("serialized", true);
    }
    w.add("cycles", r.report.cycles)
        .add("instructions", r.report.instructions)
        .add("consistent", r.report.consistent)
        .add("wall_seconds", r.seconds)
        .add("accesses_per_sec", rate);
    if (seq != nullptr) {
      w.add("speedup_vs_sequential", speedup)
          .add("cycles_vs_sequential", cycle_ratio)
          .add("relaxed_deterministic", deterministic);
    }
    w.print();
  } else {
    std::printf(
        "shards=%-2u skew=%-5llu  %8.3f s   %10.3g acc/s   %12llu cycles%s",
        shards, static_cast<unsigned long long>(skew), r.seconds, rate,
        static_cast<unsigned long long>(r.report.cycles),
        r.report.consistent ? "" : "   INCONSISTENT");
    if (seq != nullptr) {
      std::printf("   %.2fx vs sequential, %.2fx its cycles   repeat %s",
                  speedup, cycle_ratio,
                  deterministic ? "deterministic" : "NONDETERMINISTIC");
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  BenchConfig cfg;
  cfg.cores = static_cast<std::int32_t>(args.get_int("cores", 1024));
  cfg.threads = static_cast<std::int32_t>(args.get_int("threads", 256));
  cfg.blocks =
      static_cast<std::int32_t>(args.get_int("blocks-per-thread", 224));
  cfg.far_blocks =
      static_cast<std::int32_t>(args.get_int("far-blocks", 16));
  cfg.repeats = static_cast<std::int32_t>(args.get_int("repeats", 24));
  cfg.skew = static_cast<em2::Cycle>(args.get_int("skew", 1000));
  cfg.max_cycles =
      static_cast<em2::Cycle>(args.get_int("max-cycles", 50'000'000));
  const bool json = args.has("json");
  cfg.policy = args.get_string("policy", "distance:4");
  cfg.serialized = std::thread::hardware_concurrency() <= 1;
  const std::string arch_name = args.get_string("arch", "em2");
  const auto parsed_arch = em2::parse_mem_arch(arch_name);
  if (!parsed_arch || *parsed_arch == em2::MemArch::kCc) {
    std::fprintf(stderr,
                 "unknown or unsupported arch '%s' (known: em2, em2-ra; "
                 "sharding has no CC partition)\n",
                 arch_name.c_str());
    return 1;
  }
  cfg.arch = *parsed_arch;

  std::vector<std::uint32_t> shard_counts;
  {
    const std::string list = args.get_string("shards", "2,4,8");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      if (!item.empty()) {
        shard_counts.push_back(
            static_cast<std::uint32_t>(std::stoul(item)));
      }
      if (comma == std::string::npos) {
        break;
      }
      pos = comma + 1;
    }
  }

  // Every leg is a relaxed run, which needs a quantum and a real split.
  if (cfg.skew == 0 ||
      std::any_of(shard_counts.begin(), shard_counts.end(),
                  [](std::uint32_t n) { return n < 2; })) {
    std::fprintf(stderr, "--skew must be > 0 and every --shards entry >= 2\n");
    return 1;
  }

  if (!json) {
    std::printf(
        "=== sharded single-run scaling (%s, %d cores, %d threads, "
        "(%d+%d)x%d loads each) ===\n",
        em2::to_string(cfg.arch), cfg.cores, cfg.threads, cfg.blocks,
        cfg.far_blocks, cfg.repeats);
    if (cfg.arch == em2::MemArch::kEm2Ra) {
      std::printf("policy: %s\n", cfg.policy.c_str());
    }
    if (cfg.serialized) {
      std::printf("NOTE: one hardware thread — shard workers run "
                  "serialized; speedups are not meaningful here\n");
    }
  }

  const RunResult seq = run_once(cfg, 1, 0);
  emit(cfg, 1, 0, seq, json);
  if (!seq.report.consistent) {
    std::fprintf(stderr, "ERROR: sequential reference run inconsistent\n");
    return 1;
  }

  bool ok = true;
  for (const std::uint32_t shards : shard_counts) {
    // A different simulated configuration (barrier-quantized cross-shard
    // traffic), measured for throughput and cycle error and checked for
    // consistency and repeat determinism, not for report identity with
    // the sequential reference.
    const RunResult relaxed = run_once(cfg, shards, cfg.skew);
    const RunResult again = run_once(cfg, shards, cfg.skew);
    const bool deterministic =
        reports_match(relaxed.report, again.report);
    emit(cfg, shards, cfg.skew, relaxed, json, &seq, deterministic);
    ok = ok && relaxed.report.consistent && !relaxed.report.timed_out &&
         deterministic;
  }

  if (!ok) {
    std::fprintf(stderr,
                 "ERROR: a relaxed run was nondeterministic, inconsistent "
                 "or timed out\n");
    return 1;
  }
  return 0;
}
