#include "em2ra/policy.hpp"

#include <cstdlib>
#include <string_view>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace em2 {

DistanceThresholdPolicy::DistanceThresholdPolicy(const Mesh& mesh,
                                                 std::int32_t threshold_hops)
    : num_cores_(static_cast<std::size_t>(mesh.num_cores())),
      threshold_(threshold_hops),
      remote_bits_((num_cores_ * num_cores_ + 63) / 64, 0) {
  for (CoreId a = 0; a < mesh.num_cores(); ++a) {
    for (CoreId b = 0; b < mesh.num_cores(); ++b) {
      if (mesh.hops(a, b) < threshold_hops) {
        const std::size_t pair =
            static_cast<std::size_t>(a) * num_cores_ +
            static_cast<std::size_t>(b);
        remote_bits_[pair >> 6] |= std::uint64_t{1} << (pair & 63);
      }
    }
  }
}

std::string DistanceThresholdPolicy::name() const {
  return "distance:" + std::to_string(threshold_);
}

HistoryPolicy::HistoryPolicy(std::uint32_t long_run, std::uint32_t capacity)
    : long_run_(long_run), capacity_(capacity) {
  EM2_ASSERT(long_run >= 1, "long-run threshold must be at least 1");
}

void HistoryPolicy::train(ThreadState& st, CoreId ended_home,
                          std::uint64_t run_len) {
  std::uint8_t* ctr = nullptr;
  if (capacity_ == 0) {
    const auto h = static_cast<std::size_t>(ended_home);
    if (h >= st.by_core.size()) {
      st.by_core.resize(h + 1, 0);
    }
    ctr = &st.by_core[h];
  } else {
    if (st.keys.empty()) {
      st.keys.assign(capacity_, kNoCore);
      st.ctrs.assign(capacity_, 0);
    }
    std::size_t slot = capacity_;
    std::size_t free_slot = capacity_;
    std::size_t victim = capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      const CoreId key = st.keys[i];
      if (key == ended_home) {
        slot = i;
        break;
      }
      if (key == kNoCore) {
        if (free_slot == capacity_) {
          free_slot = i;
        }
        continue;
      }
      // Track the eviction victim: weakest entry first (lowest counter),
      // lowest core id on ties — the same order the old ordered-map scan
      // produced, independent of slot layout.
      if (victim == capacity_ || st.ctrs[i] < st.ctrs[victim] ||
          (st.ctrs[i] == st.ctrs[victim] && key < st.keys[victim])) {
        victim = i;
      }
    }
    if (slot == capacity_) {
      slot = free_slot != capacity_ ? free_slot : victim;
      st.keys[slot] = ended_home;
      st.ctrs[slot] = 0;  // starts weakly-short
    }
    ctr = &st.ctrs[slot];
  }
  if (run_len >= long_run_) {
    if (*ctr < 3) {
      ++*ctr;
    }
  } else if (*ctr > 0) {
    --*ctr;
  }
}

void HistoryPolicy::observe(ThreadId thread, CoreId home, CoreId native) {
  ThreadState& st = state_for(thread);
  if (st.run_home == home) {
    ++st.run_len;
    return;
  }
  if (st.run_home != kNoCore) {
    if (st.run_home == native) {
      // Native runs train the dedicated register, not the table (so they
      // cannot thrash the remote-home entries).
      if (st.run_len >= long_run_) {
        if (st.native_ctr < 3) {
          ++st.native_ctr;
        }
      } else if (st.native_ctr > 0) {
        --st.native_ctr;
      }
    } else {
      train(st, st.run_home, st.run_len);
    }
  }
  st.run_home = home;
  st.run_len = 1;
}

std::string HistoryPolicy::name() const {
  std::string n = "history:" + std::to_string(long_run_);
  if (capacity_ != 0) {
    n += ":" + std::to_string(capacity_);
  }
  return n;
}

CostEstimatePolicy::CostEstimatePolicy(const CostModel& cost,
                                       double ewma_alpha)
    : cost_(cost), ewma_alpha_(ewma_alpha) {
  EM2_ASSERT(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
             "EWMA weight must be in (0, 1]");
}

void CostEstimatePolicy::observe(ThreadId thread, CoreId home,
                                 CoreId native) {
  ThreadState& st = state_for(thread);
  if (st.run_home == home) {
    ++st.run_len;
    return;
  }
  // Remote visits and native local phases are different populations;
  // each feeds its own estimator.
  if (st.run_home != kNoCore) {
    if (st.run_home == native) {
      st.native_run_ewma = (1.0 - ewma_alpha_) * st.native_run_ewma +
                           ewma_alpha_ * static_cast<double>(st.run_len);
    } else {
      predicted_run_ = (1.0 - ewma_alpha_) * predicted_run_ +
                       ewma_alpha_ * static_cast<double>(st.run_len);
    }
  }
  st.run_home = home;
  st.run_len = 1;
}

RaDecision CostEstimatePolicy::decide(const DecisionQuery& q) {
  // Expected cost of migrating once and serving ~E[run] accesses locally,
  // vs. performing that many remote round trips.  The return migration is
  // deliberately excluded from both sides: under either choice the
  // thread's subsequent movement is decided by later accesses.  Native
  // visits use the thread's local-phase estimator.
  const double expected_run =
      q.home == q.native ? state_for(q.thread).native_run_ewma
                         : predicted_run_;
  const double migrate_cost = static_cast<double>(
      cost_.migration_to(q.current, q.home, q.native));
  const double ra_once =
      static_cast<double>(cost_.remote_access(q.current, q.home, q.op));
  const double ra_cost = ra_once * expected_run;
  return migrate_cost <= ra_cost ? RaDecision::kMigrate
                                 : RaDecision::kRemoteAccess;
}

namespace {

/// Parsed form of a standard-policy spec, shared by the virtual factory
/// (make_policy) and the sealed one (StandardPolicy::make) so the two can
/// never drift.
struct ParsedSpec {
  bool ok = false;
  StandardPolicyKind kind = StandardPolicyKind::kCustom;
  std::int32_t hops = 0;          // kDistance
  std::uint32_t long_run = 2;     // kHistory
  std::uint32_t capacity = 0;     // kHistory
};

ParsedSpec parse_spec(const std::string& spec) {
  ParsedSpec p;
  if (spec == "always-migrate") {
    p.kind = StandardPolicyKind::kAlwaysMigrate;
    p.ok = true;
  } else if (spec == "always-remote") {
    p.kind = StandardPolicyKind::kAlwaysRemote;
    p.ok = true;
  } else if (spec.rfind("distance:", 0) == 0) {
    p.kind = StandardPolicyKind::kDistance;
    p.hops = std::atoi(spec.c_str() + 9);
    p.ok = true;
  } else if (spec == "history") {
    p.kind = StandardPolicyKind::kHistory;
    p.ok = true;
  } else if (spec.rfind("history:", 0) == 0) {
    // "history:<long_run>" or "history:<long_run>:<capacity>".
    const std::string rest = spec.substr(8);
    const auto colon = rest.find(':');
    const int long_run = std::atoi(rest.c_str());
    int capacity = 0;
    if (colon != std::string::npos) {
      capacity = std::atoi(rest.c_str() + colon + 1);
      if (capacity < 1) {
        return p;
      }
    }
    if (long_run >= 1) {
      p.kind = StandardPolicyKind::kHistory;
      p.long_run = static_cast<std::uint32_t>(long_run);
      p.capacity = static_cast<std::uint32_t>(capacity);
      p.ok = true;
    }
  } else if (spec == "cost-estimate") {
    p.kind = StandardPolicyKind::kCostEstimate;
    p.ok = true;
  }
  return p;
}

[[noreturn]] void fail_unknown_policy(const std::string& spec) {
  auto known = standard_policy_specs();
  known.push_back("custom:<spec>");
  fail_unknown("policy", spec, known);
}

}  // namespace

std::unique_ptr<DecisionPolicy> make_policy(const std::string& spec,
                                            const Mesh& mesh,
                                            const CostModel& cost) {
  const ParsedSpec p = parse_spec(spec);
  if (!p.ok) {
    return nullptr;
  }
  switch (p.kind) {
    case StandardPolicyKind::kAlwaysMigrate:
      return std::make_unique<AlwaysMigratePolicy>();
    case StandardPolicyKind::kAlwaysRemote:
      return std::make_unique<AlwaysRemotePolicy>();
    case StandardPolicyKind::kDistance:
      return std::make_unique<DistanceThresholdPolicy>(mesh, p.hops);
    case StandardPolicyKind::kHistory:
      return std::make_unique<HistoryPolicy>(p.long_run, p.capacity);
    case StandardPolicyKind::kCostEstimate:
      return std::make_unique<CostEstimatePolicy>(cost);
    case StandardPolicyKind::kCustom:
      break;
  }
  return nullptr;
}

StandardPolicy StandardPolicy::make(const std::string& spec,
                                    const Mesh& mesh,
                                    const CostModel& cost) {
  constexpr std::string_view kCustomPrefix = "custom:";
  if (spec.rfind(kCustomPrefix, 0) == 0) {
    auto inner = make_policy(spec.substr(kCustomPrefix.size()), mesh, cost);
    if (inner == nullptr) {
      fail_unknown_policy(spec);
    }
    return custom(std::move(inner));
  }
  const ParsedSpec p = parse_spec(spec);
  if (!p.ok) {
    fail_unknown_policy(spec);
  }
  switch (p.kind) {
    case StandardPolicyKind::kAlwaysMigrate:
      return StandardPolicy(Impl(std::in_place_type<AlwaysMigratePolicy>));
    case StandardPolicyKind::kAlwaysRemote:
      return StandardPolicy(Impl(std::in_place_type<AlwaysRemotePolicy>));
    case StandardPolicyKind::kDistance:
      return StandardPolicy(
          Impl(std::in_place_type<DistanceThresholdPolicy>, mesh, p.hops));
    case StandardPolicyKind::kHistory:
      return StandardPolicy(Impl(std::in_place_type<HistoryPolicy>,
                                 p.long_run, p.capacity));
    case StandardPolicyKind::kCostEstimate:
      return StandardPolicy(
          Impl(std::in_place_type<CostEstimatePolicy>, cost));
    case StandardPolicyKind::kCustom:
      break;
  }
  EM2_ASSERT(false, "parse_spec admits only sealed kinds");
  std::abort();  // unreachable
}

StandardPolicy StandardPolicy::custom(
    std::unique_ptr<DecisionPolicy> policy) {
  EM2_ASSERT(policy != nullptr,
             "the kCustom escape hatch needs a non-null DecisionPolicy");
  return StandardPolicy(Impl(std::move(policy)));
}

void StandardPolicy::validate_spec(const std::string& spec) {
  constexpr std::string_view kCustomPrefix = "custom:";
  const bool is_custom = spec.rfind(kCustomPrefix, 0) == 0;
  const std::string inner =
      is_custom ? spec.substr(kCustomPrefix.size()) : spec;
  if (!parse_spec(inner).ok) {
    fail_unknown_policy(spec);
  }
}

std::string StandardPolicy::name() const {
  // const visit: same switch, spelled once here (visit() is non-const
  // because decide/observe mutate predictor state).
  static_assert(std::variant_size_v<Impl> == 6,
                "update this switch (and visit()'s) when sealing a new "
                "scheme");
  switch (impl_.index()) {
    case 0:
      return std::get<0>(impl_).name();
    case 1:
      return std::get<1>(impl_).name();
    case 2:
      return std::get<2>(impl_).name();
    case 3:
      return std::get<3>(impl_).name();
    case 4:
      return std::get<4>(impl_).name();
    default:
      return std::get<5>(impl_)->name();
  }
}

std::vector<std::string> standard_policy_specs() {
  return {"always-migrate", "always-remote", "distance:4",
          "history",        "cost-estimate"};
}

}  // namespace em2
