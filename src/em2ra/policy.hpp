// Migrate-vs-remote-access decision policies for EM2-RA.
//
// Figure 3 inserts a "Decision Procedure" into the Figure-1 flow: on a
// non-local access the core either migrates the thread (as in EM2) or
// sends a word-granularity remote request to the home core and waits for
// the reply.  "Clearly, the migration-vs.-remote-access decision is
// crucial to EM2-RA performance."  The paper defers hardware-
// implementable schemes to future work and contributes the DP *upper
// bound* (src/optimal); this header provides the scheme zoo that the DP
// is used to judge.
//
// Every policy here is core-local and O(1) per access, i.e. hardware-
// implementable: it may consult only the thread's current location, the
// target home core, and small per-thread predictor state.
//
// Dispatch: the decision runs once per memory access — the hottest call
// in every EM2-RA engine — so the standard schemes form a SEALED set
// (StandardPolicy below) that engines specialize on at compile time via
// a one-shot visit hoisted out of the access loop.  The virtual
// DecisionPolicy interface is the extension point behind the kCustom
// alternative (spec "custom:<spec>", or StandardPolicy::custom with any
// user-supplied DecisionPolicy): one virtual call per decide/observe.
// It is also the reference path the sealed dispatch is diffed against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "geom/mesh.hpp"
#include "noc/cost_model.hpp"
#include "util/types.hpp"

namespace em2 {

/// The binary decision of Figure 3.
enum class RaDecision : std::uint8_t {
  kMigrate = 0,
  kRemoteAccess = 1,
};

/// Decision-relevant facts about one non-local access.
struct DecisionQuery {
  ThreadId thread = kNoThread;
  CoreId current = kNoCore;  ///< where the thread is executing now
  CoreId home = kNoCore;     ///< home core of the accessed address
  CoreId native = kNoCore;   ///< the thread's native core
  MemOp op = MemOp::kRead;
  Addr block = 0;            ///< placement block of the address
};

/// A core-local migrate-vs-remote-access decision scheme.  This is the
/// *extension* interface: engines reach standard schemes through the
/// sealed StandardPolicy (static dispatch); a DecisionPolicy plugged in
/// through the kCustom escape hatch is called virtually per access.
class DecisionPolicy {
 public:
  virtual ~DecisionPolicy() = default;
  virtual RaDecision decide(const DecisionQuery& q) = 0;
  /// Informs predictive policies how the access sequence continued: called
  /// after every access (local or not) with the access's home core and the
  /// thread's native core (so predictors can ignore native-core runs,
  /// which never require a decision).
  virtual void observe(ThreadId thread, CoreId home, CoreId native) {
    (void)thread;
    (void)home;
    (void)native;
  }
  virtual std::string name() const = 0;
};

/// Pure EM2: always migrate (the paper's baseline architecture).
class AlwaysMigratePolicy final : public DecisionPolicy {
 public:
  RaDecision decide(const DecisionQuery&) override {
    return RaDecision::kMigrate;
  }
  std::string name() const override { return "always-migrate"; }
};

/// Pure remote-access coherence (the Fensch-Cintra-style comparison point
/// cited by the paper [15]): never migrate.
class AlwaysRemotePolicy final : public DecisionPolicy {
 public:
  RaDecision decide(const DecisionQuery&) override {
    return RaDecision::kRemoteAccess;
  }
  std::string name() const override { return "always-remote"; }
};

/// Distance threshold: remote-access nearby homes (a short round trip is
/// cheaper than shipping the context), migrate to distant ones only when
/// the single-trip saving beats the round trip.  Because a one-off access
/// favours RA at *all* distances once contexts are large, the practical
/// rule is hop-count based: migrate iff hops(current, home) >= threshold.
class DistanceThresholdPolicy final : public DecisionPolicy {
 public:
  DistanceThresholdPolicy(const Mesh& mesh, std::int32_t threshold_hops);
  RaDecision decide(const DecisionQuery& q) override {
    // Flat per-pair decision table: hops(current, home) >= threshold was
    // precomputed into one bit per (current, home) pair at construction
    // (64 cores -> 512 B, L1-resident), so the per-access decision is a
    // single load — the hardware realization would be equally trivial.
    const std::size_t pair =
        static_cast<std::size_t>(q.current) * num_cores_ +
        static_cast<std::size_t>(q.home);
    return static_cast<RaDecision>((remote_bits_[pair >> 6] >>
                                    (pair & 63)) &
                                   1);
  }
  std::string name() const override;

 private:
  std::size_t num_cores_;
  std::int32_t threshold_;
  /// Bit (current * num_cores + home) set iff the decision is
  /// kRemoteAccess (hops < threshold); kRemoteAccess == 1 by enum value.
  std::vector<std::uint64_t> remote_bits_;
};

/// Run-length history predictor: per (thread, home) 2-bit saturating
/// counter trained on whether the previous visit to that home would have
/// amortized a migration (run length >= `long_run`).  Predicted-long runs
/// migrate; predicted-short runs use remote access.  This is the kind of
/// simple hardware predictor the paper's future-work section anticipates.
///
/// `capacity` bounds the number of counter entries per thread, modelling
/// a real predictor table: 0 means unbounded; otherwise the per-thread
/// state IS a fully-associative `capacity`-entry counter file (the knob
/// is the table's real geometry, not a size cap on a map), and inserting
/// into a full file evicts the weakest entry (lowest counter, lowest core
/// id on ties).  The capacity sweep in bench_decision_schemes shows how
/// small the table can get before prediction quality degrades.
class HistoryPolicy final : public DecisionPolicy {
 public:
  explicit HistoryPolicy(std::uint32_t long_run = 2,
                         std::uint32_t capacity = 0);
  // In-class so the devirtualized loops inline the table probe instead
  // of paying a call per access.
  RaDecision decide(const DecisionQuery& q) override {
    ThreadState& st = state_for(q.thread);
    // The native core has its own dedicated predictor register, biased
    // toward "long" (going home usually starts a long local phase).
    if (q.home == q.native) {
      return st.native_ctr >= 2 ? RaDecision::kMigrate
                                : RaDecision::kRemoteAccess;
    }
    return lookup(st, q.home) >= 2 ? RaDecision::kMigrate
                                   : RaDecision::kRemoteAccess;
  }
  void observe(ThreadId thread, CoreId home, CoreId native) override;
  std::string name() const override;

 private:
  /// Flat per-thread predictor state (indexed by ThreadId, grown on
  /// demand — no hash lookups on the access path).
  struct ThreadState {
    CoreId run_home = kNoCore;   ///< home of the current run
    std::uint64_t run_len = 0;   ///< length of the current run
    /// Dedicated predictor for runs at the thread's native core (a single
    /// hardware register, outside the table and its capacity).
    std::uint8_t native_ctr = 2;  ///< starts weakly-long: going home is
                                  ///< usually a long local phase
    /// capacity == 0: direct-mapped 2-bit counters indexed by home core,
    /// grown on demand (an absent core reads 0 == weakly-short, exactly
    /// the old map's default-entry behaviour).
    std::vector<std::uint8_t> by_core;
    /// capacity > 0: fully-associative counter file — parallel key /
    /// counter arrays of exactly `capacity` slots (kNoCore = empty),
    /// allocated on the thread's first training event.
    std::vector<CoreId> keys;
    std::vector<std::uint8_t> ctrs;
  };
  ThreadState& state_for(ThreadId t) {
    const auto i = static_cast<std::size_t>(t);
    if (i >= state_.size()) {
      state_.resize(i + 1);
    }
    return state_[i];
  }
  /// Counter for `home` in `st`'s table (0 when absent).
  std::uint8_t lookup(const ThreadState& st, CoreId home) const {
    if (capacity_ == 0) {
      const auto h = static_cast<std::size_t>(home);
      return h < st.by_core.size() ? st.by_core[h] : 0;
    }
    // Fully-associative file: a linear scan over `capacity` slots — the
    // CAM probe a hardware predictor table would do in parallel.
    for (std::size_t i = 0; i < st.keys.size(); ++i) {
      if (st.keys[i] == home) {
        return st.ctrs[i];
      }
    }
    return 0;  // absent: starts weakly-short
  }
  void train(ThreadState& st, CoreId ended_home, std::uint64_t run_len);

  std::uint32_t long_run_;
  std::uint32_t capacity_;
  std::vector<ThreadState> state_;
};

/// Cost-estimate policy: migrate iff the *amortized* model cost favours it
/// assuming the predicted run length from a global EWMA of observed run
/// lengths.  Uses only core-local arithmetic on the analytic cost model —
/// plausibly a small fixed-function unit.
class CostEstimatePolicy final : public DecisionPolicy {
 public:
  CostEstimatePolicy(const CostModel& cost, double ewma_alpha = 0.125);
  RaDecision decide(const DecisionQuery& q) override;
  void observe(ThreadId thread, CoreId home, CoreId native) override;
  std::string name() const override { return "cost-estimate"; }

 private:
  CostModel cost_;  // by value: the model is two ints + a param block
  double ewma_alpha_;
  /// EWMA of remote (non-native) run lengths, shared across threads.
  double predicted_run_ = 1.0;
  struct ThreadState {
    CoreId run_home = kNoCore;
    std::uint64_t run_len = 0;
    /// Per-thread EWMA of native-core run lengths (local phases are a
    /// different population from remote visits); starts optimistic.
    double native_run_ewma = 8.0;
  };
  ThreadState& state_for(ThreadId t) {
    const auto i = static_cast<std::size_t>(t);
    if (i >= state_.size()) {
      state_.resize(i + 1);
    }
    return state_[i];
  }
  std::vector<ThreadState> state_;  // flat per-thread state, grown on demand
};

/// The sealed set of standard schemes, in StandardPolicy's variant order.
/// kCustom is the escape hatch: an arbitrary DecisionPolicy called
/// through its vtable (the extension point and the equivalence-test
/// reference path — "custom:<spec>" wraps the scheme make_policy builds,
/// so it differs from static dispatch only in the virtual call, never in
/// behaviour).
enum class StandardPolicyKind : std::uint8_t {
  kAlwaysMigrate = 0,
  kAlwaysRemote = 1,
  kDistance = 2,
  kHistory = 3,
  kCostEstimate = 4,
  kCustom = 5,
};

/// A decision policy the engines can specialize on at compile time.
///
/// Hot loops hoist ONE visit() out of the access loop and run the whole
/// trace against the concrete scheme — every decide()/observe() inside is
/// a direct (inlinable) call, zero virtual dispatch per access:
///
///   StandardPolicy policy = StandardPolicy::make("history", mesh, cost);
///   policy.visit([&](auto& p) {
///     for (const Access& a : trace) machine.access_hybrid(p, ...);
///   });
///
/// The kCustom alternative hands the visitor a DecisionPolicy& instead,
/// so the same loop instantiates once more against the virtual interface
/// — one virtual call per decide() and per observe().
class StandardPolicy {
 public:
  /// Parses a policy spec: the standard schemes of make_policy
  /// ("always-migrate" | "always-remote" | "distance:<hops>" | "history" |
  /// "history:<long_run>[:<capacity>]" | "cost-estimate"), or
  /// "custom:<spec>" to force the same scheme through the kCustom virtual
  /// path (custom(make_policy(spec)), the reference the dispatch-
  /// equivalence tests diff against).  Throws UnknownNameError for
  /// anything else.
  static StandardPolicy make(const std::string& spec, const Mesh& mesh,
                             const CostModel& cost);

  /// Wraps a user-supplied scheme as the kCustom alternative (one virtual
  /// call per entry point).  `policy` must be non-null (EM2_ASSERT).
  static StandardPolicy custom(std::unique_ptr<DecisionPolicy> policy);

  /// Parse-only entry check: throws UnknownNameError exactly when make()
  /// would, without building anything (make() constructs real predictor
  /// state — e.g. the distance policy's O(cores^2) bit table — which a
  /// validation pass over a spec matrix should not pay).
  static void validate_spec(const std::string& spec);

  StandardPolicyKind kind() const noexcept {
    return static_cast<StandardPolicyKind>(impl_.index());
  }

  /// The wrapped policy's name ("history:2", ...); kCustom forwards to the
  /// inner policy so reports and labels are dispatch-invariant.
  std::string name() const;

  /// One-shot static dispatch: invokes `f` with the concrete policy object
  /// (or DecisionPolicy& for kCustom).  Written as a switch, not
  /// std::visit, so every alternative is a direct call the optimizer can
  /// inline into the caller's loop.
  template <typename F>
  decltype(auto) visit(F&& f) {
    static_assert(std::variant_size_v<Impl> == 6,
                  "update this switch (and name()'s) when sealing a new "
                  "scheme; the kCustom escape hatch must stay last");
    switch (impl_.index()) {
      case 0:
        return f(std::get<0>(impl_));
      case 1:
        return f(std::get<1>(impl_));
      case 2:
        return f(std::get<2>(impl_));
      case 3:
        return f(std::get<3>(impl_));
      case 4:
        return f(std::get<4>(impl_));
      default:
        return f(*std::get<5>(impl_));
    }
  }

  /// Per-call conveniences for code outside hot loops (tests, one-off
  /// evaluations): a switch per call — still no virtual dispatch for the
  /// sealed schemes, but prefer hoisting visit() in loops.
  RaDecision decide(const DecisionQuery& q) {
    return visit([&](auto& p) { return p.decide(q); });
  }
  void observe(ThreadId thread, CoreId home, CoreId native) {
    visit([&](auto& p) { p.observe(thread, home, native); });
  }

 private:
  using Impl = std::variant<AlwaysMigratePolicy, AlwaysRemotePolicy,
                            DistanceThresholdPolicy, HistoryPolicy,
                            CostEstimatePolicy,
                            std::unique_ptr<DecisionPolicy>>;
  explicit StandardPolicy(Impl impl) : impl_(std::move(impl)) {}
  Impl impl_;
};

/// Virtual-interface factory: "always-migrate" | "always-remote" |
/// "distance:<hops>" | "history" | "history:<long_run>[:<capacity>]" |
/// "cost-estimate".  Returns nullptr for unknown names (no "custom:"
/// recursion — this IS the factory the escape hatch wraps).
std::unique_ptr<DecisionPolicy> make_policy(const std::string& spec,
                                            const Mesh& mesh,
                                            const CostModel& cost);

/// The policy names make_policy understands, for CLI help and sweeps.
std::vector<std::string> standard_policy_specs();

}  // namespace em2
