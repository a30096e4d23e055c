// Hot-path microbenchmark: raw Em2Machine::access() throughput.
//
// The EM2 claim rests on simulating billions of accesses, so the per-access
// protocol path (counter increments, cost lookups, guest-slot bookkeeping)
// is the simulator's hot loop.  This bench drives a synthetic access stream
// with a realistic local/migrate mix straight into the protocol engine and
// reports accesses per second — the figure the PR-level speedup target is
// measured against, not asserted.
//
//   --cores=N           mesh size (near-square), default 64
//   --guest-contexts=N  guest contexts per core, default 2
//   --locality=P        probability an access repeats the thread's previous
//                       home (geometric runs).  Default 0.85, which still
//                       migrates on ~33% of accesses — more than 2x the
//                       ~14% migrations/access the repo's trace workloads
//                       (e.g. ocean under first-touch) actually exhibit,
//                       so the default is a conservative stand-in for the
//                       simulator's real mix; drop it (e.g. 0.6) to stress
//                       the migration path harder.
//   --accesses=N        accesses per timed repetition, default 4000000
//   --seconds=S         keep repeating until S seconds elapsed, default 1
//   --arch=em2|em2-ra   protocol engine to drive, default em2
//   --policy=SPEC       em2-ra decision policy, default distance:4.  The
//                       sealed schemes run statically dispatched (one
//                       StandardPolicy::visit hoisted around the timed
//                       loop); prefix "custom:" to force the retained
//                       virtual path and measure the dispatch delta.
//   --json              one-line JSON summary instead of the text report
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "em2/machine.hpp"
#include "em2ra/hybrid_machine.hpp"
#include "em2ra/policy.hpp"
#include "geom/mesh.hpp"
#include "noc/cost_model.hpp"
#include "sim/modes.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

struct Stream {
  std::vector<em2::ThreadId> thread;
  std::vector<em2::CoreId> home;
};

// Pre-generates the access stream so the timed loop measures only the
// protocol engine, not the RNG.
Stream make_stream(std::size_t n, std::int32_t cores, double locality,
                   em2::Rng& rng) {
  Stream s;
  s.thread.reserve(n);
  s.home.reserve(n);
  std::vector<em2::CoreId> last(static_cast<std::size_t>(cores));
  for (std::int32_t t = 0; t < cores; ++t) {
    last[static_cast<std::size_t>(t)] = t;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<em2::ThreadId>(i % static_cast<std::size_t>(cores));
    em2::CoreId home = last[static_cast<std::size_t>(t)];
    if (!rng.next_bool(locality)) {
      home = static_cast<em2::CoreId>(rng.next_below(
          static_cast<std::uint64_t>(cores)));
    }
    last[static_cast<std::size_t>(t)] = home;
    s.thread.push_back(t);
    s.home.push_back(home);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const auto cores = static_cast<std::int32_t>(args.get_int("cores", 64));
  const auto guest_contexts =
      static_cast<std::int32_t>(args.get_int("guest-contexts", 2));
  const double locality = args.get_double("locality", 0.85);
  const auto accesses =
      static_cast<std::size_t>(args.get_int("accesses", 4000000));
  const double seconds = args.get_double("seconds", 1.0);
  const std::string arch_name = args.get_string("arch", "em2");
  const std::string policy_spec = args.get_string("policy", "distance:4");
  const auto parsed_arch = em2::parse_mem_arch(arch_name);
  if (!parsed_arch || *parsed_arch == em2::MemArch::kCc) {
    std::fprintf(stderr, "unknown/unsupported arch '%s' (known here: em2, "
                 "em2-ra)\n", arch_name.c_str());
    return 1;
  }
  const char* arch = em2::to_string(*parsed_arch);
  const bool json = args.has("json");

  const em2::Mesh mesh = em2::Mesh::near_square(cores);
  const em2::CostModel cost(mesh, em2::CostModelParams{});
  em2::Em2Params params;
  params.guest_contexts = guest_contexts;

  std::vector<em2::CoreId> native;
  native.reserve(static_cast<std::size_t>(cores));
  for (em2::CoreId c = 0; c < cores; ++c) {
    native.push_back(c);
  }

  em2::Rng rng(42);
  const Stream stream = make_stream(accesses, cores, locality, rng);

  std::unique_ptr<em2::Em2Machine> machine;
  em2::HybridMachine* hybrid = nullptr;
  if (*parsed_arch == em2::MemArch::kEm2Ra) {
    auto h =
        std::make_unique<em2::HybridMachine>(mesh, cost, params, native);
    hybrid = h.get();
    machine = std::move(h);
  } else {
    machine = std::make_unique<em2::Em2Machine>(mesh, cost, params, native);
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  double elapsed = 0.0;
  auto timed = [&](auto&& rep) {
    do {
      rep();
      done += accesses;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < seconds);
  };
  if (hybrid != nullptr) {
    em2::StandardPolicy policy = [&] {
      try {
        return em2::StandardPolicy::make(policy_spec, mesh, cost);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
      }
    }();
    // ONE visit around the whole timed region: the loop below is
    // instantiated per concrete scheme, so sealed policies pay zero
    // virtual calls per access ("custom:..." measures the old path).
    policy.visit([&](auto& p) {
      timed([&] {
        for (std::size_t i = 0; i < accesses; ++i) {
          const em2::Addr addr = static_cast<em2::Addr>(i) * 64;
          hybrid->access_hybrid(p, stream.thread[i], stream.home[i],
                                em2::MemOp::kRead, addr, addr >> 6);
        }
      });
    });
  } else {
    em2::Em2Machine& m = *machine;
    timed([&] {
      for (std::size_t i = 0; i < accesses; ++i) {
        m.access(stream.thread[i], stream.home[i], em2::MemOp::kRead,
                 static_cast<em2::Addr>(i) * 64);
      }
    });
  }

  const double rate = static_cast<double>(done) / elapsed;
  const std::uint64_t migrations = machine->counters().get("migrations");
  const std::uint64_t evictions = machine->counters().get("evictions");
  const std::uint64_t local = machine->counters().get("accesses_local");
  const std::uint64_t total = machine->counters().get("accesses");

  if (json) {
    em2::JsonWriter w;
    w.add("bench", "hot_path")
        .add("arch", std::string(arch))
        .add("cores", static_cast<std::int64_t>(cores))
        .add("guest_contexts", static_cast<std::int64_t>(guest_contexts))
        .add("locality", locality);
    if (hybrid != nullptr) {
      w.add("policy", policy_spec);
    }
    w.add("accesses", done)
        .add("seconds", elapsed)
        .add("accesses_per_sec", rate)
        .add("migrations", migrations)
        .add("evictions", evictions)
        .add("local_fraction",
             total ? static_cast<double>(local) / static_cast<double>(total)
                   : 0.0);
    w.print();
  } else {
    std::printf("=== EM2 hot-path throughput (%s, %d cores, locality %.2f) "
                "===\n",
                arch, cores, locality);
    if (hybrid != nullptr) {
      std::printf("policy:        %s\n", policy_spec.c_str());
    }
    std::printf("accesses:      %llu\n",
                static_cast<unsigned long long>(done));
    std::printf("elapsed:       %.3f s\n", elapsed);
    std::printf("throughput:    %.0f accesses/sec\n", rate);
    std::printf("migrations:    %llu\n",
                static_cast<unsigned long long>(migrations));
    std::printf("local:         %llu (%.1f%%)\n",
                static_cast<unsigned long long>(local),
                total ? 100.0 * static_cast<double>(local) /
                            static_cast<double>(total)
                      : 0.0);
  }
  return 0;
}
