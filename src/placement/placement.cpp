#include "placement/placement.hpp"

#include <unordered_map>
#include <utility>

#include "trace/round_robin.hpp"
#include "util/assert.hpp"

namespace em2 {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Placement::Placement(std::int32_t num_cores, Fallback fallback,
                     std::string name)
    : num_cores_(num_cores), fallback_(fallback), name_(std::move(name)) {
  EM2_ASSERT(num_cores >= 1, "placement needs at least one core");
}

CoreId Placement::home_of_block(Addr block) const {
  if (const HomePage* page = table_.find(block >> 4)) {
    if (const CoreId home = page->core[block & 15]; home != kNoCore) {
      return home;
    }
  }
  const Addr key = fallback_ == Fallback::kHashed ? splitmix64(block) : block;
  return static_cast<CoreId>(key % static_cast<std::uint64_t>(num_cores_));
}

void Placement::assign(Addr block, CoreId home) {
  EM2_ASSERT(home >= 0 && home < num_cores_,
             "block assigned to a nonexistent core");
  CoreId& cell = home_cell(block);
  if (cell == kNoCore) {
    ++assigned_;
  }
  cell = home;
}

std::vector<std::uint64_t> Placement::blocks_per_core() const {
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(num_cores_), 0);
  table_.for_each([&](std::uint64_t, const HomePage& page) {
    for (const CoreId core : page.core) {
      if (core != kNoCore) {
        ++counts[static_cast<std::size_t>(core)];
      }
    }
  });
  return counts;
}

Placement Placement::first_touch(const TraceSource& traces,
                                 std::int32_t num_cores) {
  Placement p(num_cores, Fallback::kStriped, "first-touch");
  for_each_round_robin(
      traces, nullptr, [&](std::size_t t, const Access& a) -> Cycle {
        CoreId& home = p.home_cell(traces.block_of(a.addr));
        if (home == kNoCore) {
          const CoreId native = traces.native_core(t);
          EM2_ASSERT(native >= 0 && native < num_cores,
                     "thread native core outside the mesh");
          home = native;
          ++p.assigned_;
        }
        return 0;
      });
  return p;
}

Placement Placement::profile_greedy(const TraceSource& traces,
                                    std::int32_t num_cores) {
  Placement p(num_cores, Fallback::kStriped, "profile-greedy");
  // Count per-(block, native core) accesses, then pick the argmax.
  std::unordered_map<Addr, std::unordered_map<CoreId, std::uint64_t>> counts;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    const CoreId native = traces.native_core(t);
    auto cursor = traces.make_cursor(t);
    while (const Access* a = cursor->next()) {
      ++counts[traces.block_of(a->addr)][native];
    }
  }
  // determinism: each block's argmax is computed independently (the inner
  // scan walks cores in ascending order, which fixes the tie-break), and
  // assignment is keyed — every block gets the same home for any
  // iteration order over `counts`.
  for (const auto& [block, per_core] : counts) {
    CoreId best = kNoCore;
    std::uint64_t best_count = 0;
    for (std::int32_t core = 0; core < num_cores; ++core) {
      const auto it = per_core.find(core);
      const std::uint64_t c = it == per_core.end() ? 0 : it->second;
      if (c > best_count) {
        best_count = c;
        best = core;
      }
    }
    if (best != kNoCore) {
      p.assign(block, best);
    }
  }
  return p;
}

std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement) {
  std::vector<CoreId> homes;
  homes.reserve(thread.size());
  thread.for_each([&](const Access& a) {
    homes.push_back(placement.home_of_block(traces.block_of(a.addr)));
  });
  return homes;
}

std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores) {
  if (scheme == "striped") {
    return std::make_unique<Placement>(Placement::striped(num_cores));
  }
  if (scheme == "hashed") {
    return std::make_unique<Placement>(Placement::hashed(num_cores));
  }
  if (scheme == "first-touch") {
    return std::make_unique<Placement>(
        Placement::first_touch(traces, num_cores));
  }
  if (scheme == "profile-greedy") {
    return std::make_unique<Placement>(
        Placement::profile_greedy(traces, num_cores));
  }
  return nullptr;
}

std::vector<std::string> placement_names() {
  return {"first-touch", "striped", "hashed", "profile-greedy"};
}

}  // namespace em2
