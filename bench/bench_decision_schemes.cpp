// Experiment C5 (+F3): migrate-vs-remote-access decision schemes against
// the paper's DP optimal upper bound.
//
// Section 3 introduces the analytical model precisely so that
// "hardware-implementable scheme[s]" can be judged against the optimum.
// For every workload we solve the DP per thread (the model considers one
// thread at a time) and evaluate each core-local policy on the same
// traces; the figure of merit is policy_cost / optimal_cost.  Workloads
// are independent sweep points and fan out across hardware threads.
//
// Policies are evaluated through the sealed StandardPolicy (one visit per
// trace, zero virtual calls per model access) — this bench's summary row
// is the policy-sweep throughput the perf trajectory tracks.
//
//   --json    one JSON object per workload + a summary row with
//             accesses_per_sec (policy-evaluated model accesses / s)
//   --jobs=N  sweep worker threads (default: hardware concurrency; CI
//             pins --jobs=2 so trajectory rows stay comparable)
#include <chrono>
#include <cstdio>
#include <iostream>

#include "api/system.hpp"
#include "optimal/policy_eval.hpp"
#include "sim/sweep.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

struct WorkloadResult {
  std::string name;
  bool present = false;
  em2::Cost optimal = 0;
  std::vector<double> policy_ratios;  // one per standard_policy_specs()
  /// Model accesses evaluated across all policies (trace length x specs).
  std::uint64_t evaluated_accesses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const bool json = args.has("json");
  em2::sweep::Options sweep_opts;
  sweep_opts.num_threads =
      static_cast<unsigned>(args.get_int("jobs", 0));

  const std::int32_t threads = 16;
  em2::SystemConfig cfg;
  cfg.threads = threads;
  em2::System sys(cfg);

  const auto names = em2::workload::workload_names();
  const auto specs = em2::standard_policy_specs();
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<WorkloadResult> results = em2::sweep::run(
      names.size(),
      [&](std::size_t i) {
        WorkloadResult res;
        res.name = names[i];
        const auto traces =
            em2::workload::make_by_name(names[i], threads, 2, 1);
        if (!traces) {
          return res;
        }
        res.present = true;
        const auto placement = sys.make_placement_for(*traces);

        std::vector<em2::ModelTrace> model_traces;
        for (const auto& thread : traces->threads()) {
          const auto homes =
              em2::home_sequence(thread, *traces, *placement);
          std::vector<em2::MemOp> ops;
          ops.reserve(thread.size());
          thread.for_each([&](const em2::Access& a) { ops.push_back(a.op); });
          model_traces.push_back(
              em2::make_model_trace(homes, ops, thread.native_core()));
          res.optimal += em2::solve_optimal_migrate_ra(model_traces.back(),
                                                       sys.cost_model())
                             .total_cost;
        }

        for (const auto& spec : specs) {
          em2::Cost policy_cost = 0;
          for (const auto& mt : model_traces) {
            em2::StandardPolicy policy =
                em2::StandardPolicy::make(spec, sys.mesh(),
                                          sys.cost_model());
            policy_cost +=
                em2::evaluate_policy_model(mt, sys.cost_model(), policy)
                    .total_cost;
            res.evaluated_accesses += mt.homes.size();
          }
          res.policy_ratios.push_back(
              res.optimal ? static_cast<double>(policy_cost) /
                                static_cast<double>(res.optimal)
                          : 1.0);
        }
        return res;
      },
      sweep_opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (json) {
    for (const WorkloadResult& res : results) {
      if (!res.present) {
        continue;
      }
      em2::JsonWriter w;
      w.add("bench", "decision_schemes").add("workload", res.name);
      w.add("optimal_cost", static_cast<std::uint64_t>(res.optimal));
      for (std::size_t s = 0; s < specs.size(); ++s) {
        w.add(specs[s], res.policy_ratios[s]);
      }
      w.print();
    }
    std::uint64_t evaluated = 0;
    for (const WorkloadResult& res : results) {
      evaluated += res.evaluated_accesses;
    }
    em2::JsonWriter summary;
    summary.add("bench", "decision_schemes_summary")
        .add("workloads", static_cast<std::uint64_t>(results.size()))
        .add("cores", static_cast<std::int64_t>(threads))
        .add("seconds", elapsed)
        .add("evaluated_accesses", evaluated)
        .add("accesses_per_sec",
             elapsed > 0 ? static_cast<double>(evaluated) / elapsed : 0.0)
        .add("sweep_jobs",
             static_cast<std::int64_t>(em2::sweep::resolve_threads(sweep_opts)));
    summary.print();
    return 0;
  }

  std::printf("=== EM2-RA decision schemes vs DP optimal (Section 3) ===\n");
  std::printf("16 threads on a 4x4 mesh, first-touch placement; cost = "
              "network cycles of the analytical model\n\n");
  std::vector<std::string> header = {"workload", "optimal"};
  header.insert(header.end(), specs.begin(), specs.end());
  em2::Table t(header);
  for (const WorkloadResult& res : results) {
    if (!res.present) {
      continue;
    }
    t.begin_row().add_cell(res.name).add_cell(res.optimal);
    for (const double ratio : res.policy_ratios) {
      t.add_cell(ratio, 3);
    }
  }
  t.print(std::cout);
  std::printf("\n(cells are policy cost / optimal cost; 1.000 = optimal;"
              " the best implementable scheme per row is the one closest"
              " to 1)\n");
  std::printf("(sweep: %zu workloads in %.2f s on %u worker threads)\n",
              results.size(), elapsed,
              em2::sweep::resolve_threads(sweep_opts));
  return 0;
}
