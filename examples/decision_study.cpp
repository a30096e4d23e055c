// Deep-dive into the paper's analytical model: solve the DP on one
// thread's trace, print the optimal decision sequence alongside what each
// policy would have done, and show the per-access cost accounting.
//
//   ./decision_study [--workload=geometric] [--thread=0] [--window=40]
#include <cstdio>
#include <iostream>

#include "api/system.hpp"
#include "optimal/policy_eval.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

const char* action_name(em2::AccessAction a) {
  switch (a) {
    case em2::AccessAction::kLocal:
      return ".";
    case em2::AccessAction::kMigrate:
      return "M";
    case em2::AccessAction::kRemote:
      return "r";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const std::string workload = args.get_string("workload", "geometric");
  const auto tid = static_cast<std::size_t>(args.get_int("thread", 0));
  const auto window = static_cast<std::size_t>(args.get_int("window", 40));

  em2::SystemConfig cfg;
  cfg.threads = 16;
  em2::System sys(cfg);
  const auto traces = em2::workload::make_by_name(workload, 16, 1, 7);
  if (!traces || tid >= traces->num_threads()) {
    std::fprintf(stderr, "bad workload/thread\n");
    return 1;
  }
  const auto placement = sys.make_placement_for(*traces);
  const em2::ThreadTrace& thread = traces->thread(tid);
  const auto homes = em2::home_sequence(thread, *traces, *placement);
  std::vector<em2::MemOp> ops;
  thread.for_each([&](const em2::Access& a) { ops.push_back(a.op); });
  const em2::ModelTrace mt =
      em2::make_model_trace(homes, ops, thread.native_core());

  const em2::MigrateRaSolution opt =
      em2::solve_optimal_migrate_ra(mt, sys.cost_model());

  std::printf("thread %zu of '%s': %zu accesses, native core %d\n",
              tid, workload.c_str(), mt.homes.size(), mt.start);
  std::printf("optimal cost %llu cycles (%llu migrations, %llu remote "
              "accesses)\n\n",
              static_cast<unsigned long long>(opt.total_cost),
              static_cast<unsigned long long>(opt.migrations),
              static_cast<unsigned long long>(opt.remote_accesses));

  // Decision strip: the first `window` accesses, optimal vs policies.
  std::printf("--- first %zu accesses: home core / optimal action "
              "(.=local M=migrate r=remote) ---\n", window);
  const std::size_t n = std::min(window, mt.homes.size());
  std::printf("home:    ");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%2d ", mt.homes[i]);
  }
  std::printf("\noptimal: ");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%2s ", action_name(opt.actions[i]));
  }
  std::printf("\n");
  for (const auto& spec : em2::standard_policy_specs()) {
    em2::StandardPolicy policy =
        em2::StandardPolicy::make(spec, sys.mesh(), sys.cost_model());
    const auto sol =
        em2::evaluate_policy_model(mt, sys.cost_model(), policy);
    std::printf("%-14s", (spec + ":").c_str());
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%2s ", action_name(sol.actions[i]));
    }
    std::printf("  (cost %.2fx optimal)\n",
                opt.total_cost
                    ? static_cast<double>(sol.total_cost) /
                          static_cast<double>(opt.total_cost)
                    : 1.0);
  }

  std::printf("\n--- full-trace policy comparison ---\n");
  em2::Table t({"scheme", "cost", "vs_optimal", "migrations", "remote"});
  t.begin_row()
      .add_cell("OPTIMAL (DP)")
      .add_cell(static_cast<std::uint64_t>(opt.total_cost))
      .add_cell(1.0, 3)
      .add_cell(opt.migrations)
      .add_cell(opt.remote_accesses);
  for (const auto& spec : em2::standard_policy_specs()) {
    em2::StandardPolicy policy =
        em2::StandardPolicy::make(spec, sys.mesh(), sys.cost_model());
    const auto sol =
        em2::evaluate_policy_model(mt, sys.cost_model(), policy);
    t.begin_row()
        .add_cell(spec)
        .add_cell(static_cast<std::uint64_t>(sol.total_cost))
        .add_cell(opt.total_cost
                      ? static_cast<double>(sol.total_cost) /
                            static_cast<double>(opt.total_cost)
                      : 1.0,
                  3)
        .add_cell(sol.migrations)
        .add_cell(sol.remote_accesses);
  }
  t.print(std::cout);
  return 0;
}
