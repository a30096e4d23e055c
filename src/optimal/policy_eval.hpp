// O(N) evaluation of a concrete migrate-vs-RA decision scheme under the
// paper's analytical model — "Computing the equivalent cost of a specific
// decision requires applying the decision procedure to each memory access
// in the trace, and so is O(N)."
//
// Same assumptions as the DP (single thread, no evictions, free local
// accesses), so the ratio policy_cost / optimal_cost is exactly the
// paper's figure of merit for hardware-implementable schemes.
#pragma once

#include "em2ra/policy.hpp"
#include "optimal/dp_migrate.hpp"

namespace em2 {

/// Walks the trace applying `policy` at every non-local access.  The walk
/// is specialized on the policy's concrete type (one visit per trace, no
/// virtual call per access — the policy-zoo sweeps evaluate millions of
/// model accesses per policy); the kCustom alternative walks it through
/// the virtual DecisionPolicy interface.
MigrateRaSolution evaluate_policy_model(const ModelTrace& trace,
                                        const CostModel& cost,
                                        StandardPolicy& policy);

}  // namespace em2
