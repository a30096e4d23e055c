#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "em2ra/policy.hpp"
#include "noc/cost_model.hpp"
#include "optimal/policy_eval.hpp"
#include "util/rng.hpp"

namespace em2 {
namespace {

/// Reference implementation of the history predictor exactly as it
/// shipped before the flat-table rewrite: per-thread state in an
/// unordered_map, counters in an ordered std::map whose iteration order
/// defined the eviction tie-break (lowest counter, lowest core id).  The
/// flat fixed-capacity files must be decision-for-decision identical to
/// this, including eviction order at every capacity.
class MapHistoryReference {
 public:
  explicit MapHistoryReference(std::uint32_t long_run,
                               std::uint32_t capacity)
      : long_run_(long_run), capacity_(capacity) {}

  RaDecision decide(const DecisionQuery& q) {
    ThreadState& st = state_[q.thread];
    if (q.home == q.native) {
      return st.native_ctr >= 2 ? RaDecision::kMigrate
                                : RaDecision::kRemoteAccess;
    }
    const auto it = st.counter.find(q.home);
    const std::uint8_t ctr = it == st.counter.end() ? 0 : it->second;
    return ctr >= 2 ? RaDecision::kMigrate : RaDecision::kRemoteAccess;
  }

  void observe(ThreadId thread, CoreId home, CoreId native) {
    ThreadState& st = state_[thread];
    if (st.run_home == home) {
      ++st.run_len;
      return;
    }
    if (st.run_home != kNoCore) {
      if (st.run_home == native) {
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

 private:
  struct ThreadState {
    CoreId run_home = kNoCore;
    std::uint64_t run_len = 0;
    std::uint8_t native_ctr = 2;
    std::map<CoreId, std::uint8_t> counter;
  };
  void train(ThreadState& st, CoreId ended_home, std::uint64_t run_len) {
    auto it = st.counter.find(ended_home);
    if (it == st.counter.end()) {
      if (capacity_ != 0 && st.counter.size() >= capacity_) {
        auto victim = st.counter.begin();
        for (auto cand = st.counter.begin(); cand != st.counter.end();
             ++cand) {
          if (cand->second < victim->second) {
            victim = cand;
          }
        }
        st.counter.erase(victim);
      }
      it = st.counter.emplace(ended_home, 0).first;
    }
    std::uint8_t& ctr = it->second;
    if (run_len >= long_run_) {
      if (ctr < 3) {
        ++ctr;
      }
    } else if (ctr > 0) {
      --ctr;
    }
  }

  std::uint32_t long_run_;
  std::uint32_t capacity_;
  std::unordered_map<ThreadId, ThreadState> state_;
};

DecisionQuery query(ThreadId t, CoreId current, CoreId home) {
  DecisionQuery q;
  q.thread = t;
  q.current = current;
  q.home = home;
  q.native = current;
  q.op = MemOp::kRead;
  return q;
}

void train_long(HistoryPolicy& p, ThreadId t, CoreId home, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    p.observe(t, home, 0);
    p.observe(t, home, 0);
    p.observe(t, home, 0);
    p.observe(t, 0, 0);  // end the run
  }
}

TEST(HistoryCapacity, UnboundedRemembersManyHomes) {
  HistoryPolicy p(2, 0);
  for (CoreId home = 1; home <= 8; ++home) {
    train_long(p, 0, home, 3);
  }
  for (CoreId home = 1; home <= 8; ++home) {
    EXPECT_EQ(p.decide(query(0, 0, home)), RaDecision::kMigrate) << home;
  }
}

TEST(HistoryCapacity, TinyTableForgets) {
  HistoryPolicy p(2, 2);  // only two entries per thread
  for (CoreId home = 1; home <= 6; ++home) {
    train_long(p, 0, home, 3);
  }
  // At most 2 homes can still be predicted long; training home 6 last
  // means it must be resident.
  int predicted_long = 0;
  for (CoreId home = 1; home <= 6; ++home) {
    if (p.decide(query(0, 0, home)) == RaDecision::kMigrate) {
      ++predicted_long;
    }
  }
  EXPECT_LE(predicted_long, 2);
  EXPECT_EQ(p.decide(query(0, 0, 6)), RaDecision::kMigrate);
}

TEST(HistoryCapacity, EvictsWeakestEntry) {
  HistoryPolicy p(2, 2);
  train_long(p, 0, 1, 3);  // home 1: strong (counter 3)
  // Home 2: one short run -> weak entry (counter 0).
  p.observe(0, 2, 0);
  p.observe(0, 0, 0);
  // Home 3 arrives: must evict home 2 (weakest), keeping home 1.
  train_long(p, 0, 3, 3);
  EXPECT_EQ(p.decide(query(0, 0, 1)), RaDecision::kMigrate);
  EXPECT_EQ(p.decide(query(0, 0, 3)), RaDecision::kMigrate);
}

TEST(HistoryCapacity, NameEncodesCapacity) {
  EXPECT_EQ(HistoryPolicy(2, 0).name(), "history:2");
  EXPECT_EQ(HistoryPolicy(2, 4).name(), "history:2:4");
}

TEST(HistoryCapacity, FactoryParsesCapacitySpecs) {
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  auto p = make_policy("history:2:4", mesh, cost);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "history:2:4");
  EXPECT_EQ(make_policy("history:2:0", mesh, cost), nullptr);
}

TEST(HistoryCapacity, FlatTableMatchesMapReferenceDecisionForDecision) {
  // Random decide/observe streams across several threads and more homes
  // than capacity: evictions fire constantly, so any divergence in the
  // flat file's victim selection (lowest counter, lowest core id ties)
  // from the ordered map's shows up as a decision flip.
  for (const std::uint32_t capacity : {0u, 1u, 2u, 3u, 4u, 8u}) {
    for (const std::uint32_t long_run : {1u, 2u, 3u}) {
      HistoryPolicy flat(long_run, capacity);
      MapHistoryReference reference(long_run, capacity);
      Rng rng(1000 * capacity + long_run);
      for (int step = 0; step < 20000; ++step) {
        const auto t = static_cast<ThreadId>(rng.next_below(3));
        const auto home = static_cast<CoreId>(rng.next_below(12));
        DecisionQuery q;
        q.thread = t;
        q.current = 0;
        q.home = home;
        q.native = static_cast<CoreId>(t);
        EXPECT_EQ(flat.decide(q), reference.decide(q))
            << "capacity " << capacity << " long_run " << long_run
            << " step " << step;
        flat.observe(t, home, static_cast<CoreId>(t));
        reference.observe(t, home, static_cast<CoreId>(t));
      }
    }
  }
}

TEST(HistoryCapacity, CapacityPMatchesUnbounded) {
  // A table with one entry per possible home core is equivalent to the
  // unbounded policy on any trace.
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  Rng rng(5);
  ModelTrace t;
  t.start = 0;
  for (int i = 0; i < 2000; ++i) {
    t.homes.push_back(static_cast<CoreId>(rng.next_below(16)));
    t.ops.push_back(MemOp::kRead);
  }
  StandardPolicy unbounded = StandardPolicy::make("history:2", mesh, cost);
  StandardPolicy full_table =
      StandardPolicy::make("history:2:16", mesh, cost);
  const auto a = evaluate_policy_model(t, cost, unbounded);
  const auto b = evaluate_policy_model(t, cost, full_table);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace em2
