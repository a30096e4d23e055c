// Ablation: how big must the migrate-vs-RA history predictor table be?
//
// The paper leaves "hardware-implementable decision schemes" to future
// work; a per-thread run-length predictor is the natural candidate, and
// its hardware cost is its table capacity (entries x ~2 bits + tag).
// This bench sweeps the per-thread capacity from 1 entry to unbounded and
// reports model cost vs the DP optimum — showing the knee where a small
// table suffices.
#include <cstdio>
#include <iostream>

#include "api/system.hpp"
#include "optimal/policy_eval.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const bool json = args.has("json");
  if (!json) {
    std::printf("=== History-predictor table capacity sweep ===\n");
    std::printf("16 threads (4x4), first-touch placement; cells = policy "
                "cost / DP optimal cost\n\n");
  }

  em2::SystemConfig cfg;
  cfg.threads = 16;
  em2::System sys(cfg);

  const char* capacities[] = {"history:2:1", "history:2:2", "history:2:4",
                              "history:2:8", "history:2"};
  em2::Table t({"workload", "cap=1", "cap=2", "cap=4", "cap=8",
                "unbounded"});
  for (const char* name : {"ocean", "barnes", "geometric", "hotspot",
                           "producer-consumer"}) {
    const auto traces = em2::workload::make_by_name(name, 16, 2, 1);
    if (!traces) {
      continue;
    }
    const auto placement = sys.make_placement_for(*traces);

    // Per-thread model traces + the optimal bound.
    std::vector<em2::ModelTrace> mts;
    em2::Cost optimal = 0;
    for (const auto& thread : traces->threads()) {
      const auto homes = em2::home_sequence(thread, *traces, *placement);
      std::vector<em2::MemOp> ops;
      thread.for_each([&](const em2::Access& a) { ops.push_back(a.op); });
      mts.push_back(em2::make_model_trace(homes, ops, thread.native_core()));
      optimal += em2::solve_optimal_migrate_ra(mts.back(), sys.cost_model())
                     .total_cost;
    }

    em2::JsonWriter w;
    if (json) {
      w.add("bench", "predictor_capacity").add("workload", name);
    } else {
      t.begin_row().add_cell(name);
    }
    for (const char* spec : capacities) {
      em2::Cost total = 0;
      for (const auto& mt : mts) {
        em2::StandardPolicy policy = em2::StandardPolicy::make(
            spec, sys.mesh(), sys.cost_model());
        total += em2::evaluate_policy_model(mt, sys.cost_model(), policy)
                     .total_cost;
      }
      const double ratio = optimal ? static_cast<double>(total) /
                                         static_cast<double>(optimal)
                                   : 1.0;
      if (json) {
        w.add(spec, ratio);
      } else {
        t.add_cell(ratio, 3);
      }
    }
    if (json) {
      w.print();
    }
  }
  if (json) {
    return 0;
  }
  t.print(std::cout);
  std::printf("\n(a capacity-P table — one entry per possible home — "
              "matches unbounded by construction; the interesting result "
              "is how few entries already get there)\n");
  return 0;
}
