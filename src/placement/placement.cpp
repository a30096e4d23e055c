#include "placement/placement.hpp"

#include <algorithm>
#include <unordered_map>

#include "trace/round_robin.hpp"
#include "util/assert.hpp"

namespace em2 {
namespace {

std::uint64_t splitmix64_once(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

StripedPlacement::StripedPlacement(std::int32_t num_cores)
    : num_cores_(num_cores) {
  EM2_ASSERT(num_cores >= 1, "placement needs at least one core");
}

CoreId StripedPlacement::home_of_block(Addr block) const {
  return static_cast<CoreId>(block %
                             static_cast<std::uint64_t>(num_cores_));
}

HashedPlacement::HashedPlacement(std::int32_t num_cores, std::uint64_t salt)
    : num_cores_(num_cores), salt_(salt) {
  EM2_ASSERT(num_cores >= 1, "placement needs at least one core");
}

CoreId HashedPlacement::home_of_block(Addr block) const {
  return static_cast<CoreId>(splitmix64_once(block ^ salt_) %
                             static_cast<std::uint64_t>(num_cores_));
}

TablePlacement::TablePlacement(std::int32_t num_cores)
    : num_cores_(num_cores) {
  EM2_ASSERT(num_cores >= 1, "placement needs at least one core");
}

CoreId TablePlacement::home_of_block(Addr block) const {
  if (const HomePage* page = table_.find(block >> 4)) {
    if (const CoreId home = page->core[block & 15]; home != kNoCore) {
      return home;
    }
  }
  return static_cast<CoreId>(block %
                             static_cast<std::uint64_t>(num_cores_));
}

void TablePlacement::assign(Addr block, CoreId home) {
  EM2_ASSERT(home >= 0 && home < num_cores_,
             "block assigned to a nonexistent core");
  CoreId& cell = home_cell(block);
  if (cell == kNoCore) {
    ++assigned_;
  }
  cell = home;
}

std::vector<std::uint64_t> TablePlacement::blocks_per_core() const {
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

FirstTouchPlacement::FirstTouchPlacement(const TraceSource& traces,
                                         std::int32_t num_cores)
    : TablePlacement(num_cores) {
  for_each_round_robin(
      traces, nullptr, [&](std::size_t t, const Access& a) -> Cycle {
        CoreId& home = home_cell(traces.block_of(a.addr));
        if (home == kNoCore) {
          const CoreId native = traces.native_core(t);
          EM2_ASSERT(native >= 0 && native < num_cores_,
                     "thread native core outside the mesh");
          home = native;
          ++assigned_;
        }
        return 0;
      });
}

ProfileGreedyPlacement::ProfileGreedyPlacement(const TraceSource& traces,
                                               std::int32_t num_cores)
    : TablePlacement(num_cores) {
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
    for (std::int32_t core = 0; core < num_cores_; ++core) {
      const auto it = per_core.find(core);
      const std::uint64_t c = it == per_core.end() ? 0 : it->second;
      if (c > best_count) {
        best_count = c;
        best = core;
      }
    }
    if (best != kNoCore) {
      assign(block, best);
    }
  }
}

std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement) {
  std::vector<CoreId> homes;
  homes.reserve(thread.size());
  for (const auto& a : thread.accesses()) {
    homes.push_back(placement.home_of_block(traces.block_of(a.addr)));
  }
  return homes;
}

std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores) {
  if (scheme == "striped") {
    return std::make_unique<StripedPlacement>(num_cores);
  }
  if (scheme == "hashed") {
    return std::make_unique<HashedPlacement>(num_cores);
  }
  if (scheme == "first-touch") {
    return std::make_unique<FirstTouchPlacement>(traces, num_cores);
  }
  if (scheme == "profile-greedy") {
    return std::make_unique<ProfileGreedyPlacement>(traces, num_cores);
  }
  return nullptr;
}

std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSet& traces,
                                          std::int32_t num_cores) {
  return make_placement(scheme, MemoryTraceSource(traces), num_cores);
}

std::vector<std::string> placement_names() {
  return {"first-touch", "striped", "hashed", "profile-greedy"};
}

}  // namespace em2
