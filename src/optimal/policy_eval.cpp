#include "optimal/policy_eval.hpp"

#include "util/assert.hpp"

namespace em2 {

namespace {

template <typename Policy>
MigrateRaSolution evaluate_policy_model_impl(const ModelTrace& trace,
                                             const CostModel& cost,
                                             Policy& policy) {
  const std::size_t n = trace.homes.size();
  MigrateRaSolution sol;
  sol.actions.resize(n);
  sol.locations.resize(n);

  // Single-pass shortcuts for the two schemes whose action stream is a
  // pure function of the home sequence: always-remote pins the thread at
  // trace.start, always-migrate pins it at the previous home (their
  // observe() is the inherited no-op, so eliding it changes nothing).
  // This is a compile-time selection by policy type, not a user knob, and
  // it pays for itself: the generic decide-apply loop below produces the
  // same ratios but ran the bench_decision_schemes summary about 5%
  // slower in median.  Every other scheme — and the kCustom virtual path,
  // which reaches here type-opaque — keeps the sequential loop.
  if constexpr (std::is_same_v<Policy, AlwaysRemotePolicy>) {
    (void)policy;
    for (std::size_t k = 0; k < n; ++k) {
      const CoreId home = trace.homes[k];
      sol.locations[k] = trace.start;
      if (home == trace.start) {
        sol.actions[k] = AccessAction::kLocal;
      } else {
        sol.actions[k] = AccessAction::kRemote;
        ++sol.remote_accesses;
        sol.total_cost += cost.remote_access(trace.start, home, trace.ops[k]);
      }
    }
    return sol;
  } else if constexpr (std::is_same_v<Policy, AlwaysMigratePolicy>) {
    (void)policy;
    CoreId prev = trace.start;
    for (std::size_t k = 0; k < n; ++k) {
      const CoreId home = trace.homes[k];
      sol.locations[k] = home;
      if (home == prev) {
        sol.actions[k] = AccessAction::kLocal;
      } else {
        sol.actions[k] = AccessAction::kMigrate;
        ++sol.migrations;
        sol.total_cost += cost.migration_to(prev, home, trace.start);
        prev = home;
      }
    }
    return sol;
  }

  CoreId at = trace.start;
  for (std::size_t k = 0; k < n; ++k) {
    const CoreId home = trace.homes[k];
    const MemOp op = trace.ops[k];
    if (at == home) {
      sol.actions[k] = AccessAction::kLocal;
    } else {
      DecisionQuery q;
      q.thread = 0;
      q.current = at;
      q.home = home;
      q.native = trace.start;
      q.op = op;
      if (policy.decide(q) == RaDecision::kMigrate) {
        sol.total_cost += cost.migration_to(at, home, trace.start);
        at = home;
        sol.actions[k] = AccessAction::kMigrate;
        ++sol.migrations;
      } else {
        sol.total_cost += cost.remote_access(at, home, op);
        sol.actions[k] = AccessAction::kRemote;
        ++sol.remote_accesses;
      }
    }
    sol.locations[k] = at;
    policy.observe(0, home, trace.start);
  }
  return sol;
}

}  // namespace

MigrateRaSolution evaluate_policy_model(const ModelTrace& trace,
                                        const CostModel& cost,
                                        StandardPolicy& policy) {
  return policy.visit([&](auto& p) {
    return evaluate_policy_model_impl(trace, cost, p);
  });
}

}  // namespace em2
