#include "coherence/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace em2 {
namespace {

struct CcFixture {
  Mesh mesh{4, 4};
  CostModel cost{mesh, CostModelParams{}};
  Placement placement = Placement::striped(16);
  DirCcParams params{};
  DirectoryCC cc{mesh, cost, params, placement};
};

TEST(DirectoryCC, ColdReadMissFetchesFromHome) {
  CcFixture f;
  const auto r = f.cc.access(0, 0x1000, MemOp::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(f.cc.counters().get("gets"), 1u);
  EXPECT_EQ(f.cc.counters().get("data_home"), 1u);
  EXPECT_EQ(f.cc.counters().get("dram_fills"), 1u);
}

TEST(DirectoryCC, ReadAfterReadHits) {
  CcFixture f;
  f.cc.access(0, 0x1000, MemOp::kRead);
  const auto r = f.cc.access(0, 0x1004, MemOp::kRead);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(f.cc.counters().get("hits"), 1u);
}

TEST(DirectoryCC, SharersReplicateLines) {
  CcFixture f;
  // Four cores read the same line: 4 copies on chip.
  for (CoreId c = 0; c < 4; ++c) {
    f.cc.access(c, 0x2000, MemOp::kRead);
  }
  EXPECT_EQ(f.cc.total_valid_lines(), 4u);
  EXPECT_EQ(f.cc.distinct_resident_lines(), 1u);
  EXPECT_DOUBLE_EQ(f.cc.replication_factor(), 4.0);
}

TEST(DirectoryCC, WriteInvalidatesSharers) {
  CcFixture f;
  for (CoreId c = 0; c < 4; ++c) {
    f.cc.access(c, 0x2000, MemOp::kRead);
  }
  // Core 0 upgrades: the other three sharers must be invalidated.
  f.cc.access(0, 0x2000, MemOp::kWrite);
  EXPECT_EQ(f.cc.counters().get("inv"), 3u);
  EXPECT_EQ(f.cc.counters().get("inv_ack"), 3u);
  EXPECT_EQ(f.cc.total_valid_lines(), 1u);
}

TEST(DirectoryCC, WriteThenWriteHitsInM) {
  CcFixture f;
  f.cc.access(2, 0x3000, MemOp::kWrite);
  const auto r = f.cc.access(2, 0x3000, MemOp::kWrite);
  EXPECT_TRUE(r.hit);
}

TEST(DirectoryCC, ReadOfModifiedForwardsToOwner) {
  CcFixture f;
  f.cc.access(1, 0x3000, MemOp::kWrite);  // core 1 owns in M
  const auto r = f.cc.access(2, 0x3000, MemOp::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(f.cc.counters().get("fwd_gets"), 1u);
  EXPECT_EQ(f.cc.counters().get("data_owner"), 1u);
  EXPECT_EQ(f.cc.counters().get("wb_downgrade"), 1u);
  // Both now share.
  EXPECT_EQ(f.cc.total_valid_lines(), 2u);
}

TEST(DirectoryCC, WriteOfModifiedTransfersOwnership) {
  CcFixture f;
  f.cc.access(1, 0x3000, MemOp::kWrite);
  f.cc.access(2, 0x3000, MemOp::kWrite);
  EXPECT_EQ(f.cc.counters().get("fwd_getm"), 1u);
  EXPECT_EQ(f.cc.total_valid_lines(), 1u);  // old owner invalidated
  // New owner hits.
  EXPECT_TRUE(f.cc.access(2, 0x3000, MemOp::kWrite).hit);
}

TEST(DirectoryCC, UpgradeAvoidsDataTransfer) {
  CcFixture f;
  f.cc.access(0, 0x4000, MemOp::kRead);
  f.cc.access(0, 0x4000, MemOp::kWrite);  // S -> M upgrade
  EXPECT_EQ(f.cc.counters().get("upgrade"), 1u);
  EXPECT_EQ(f.cc.counters().get("upgrade_ack"), 1u);
}

TEST(DirectoryCC, DirectoryBitsGrowWithTrackedLines) {
  CcFixture f;
  EXPECT_EQ(f.cc.directory_bits(), 0u);
  f.cc.access(0, 0x1000, MemOp::kRead);
  f.cc.access(0, 0x2000, MemOp::kRead);
  // Two tracked lines x (2 + 16) bits.
  EXPECT_EQ(f.cc.directory_bits(), 2u * 18u);
}

TEST(DirectoryCC, LatencyIncludesInvalidationCriticalPath) {
  CcFixture f;
  const Cost solo_write = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  // New line, now shared by 3 more cores, then re-written: must cost at
  // least as much as the unshared write (inv round trips added, DRAM
  // fill removed — compare against a fresh unshared write instead).
  for (CoreId c = 1; c < 4; ++c) {
    f.cc.access(c, 0x5000, MemOp::kRead);
  }
  const Cost shared_write = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  // The shared write pays invalidation round trips but no DRAM fill;
  // the solo write paid a DRAM fill.  Both must exceed a pure hit.
  const Cost hit = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  EXPECT_GT(solo_write, hit);
  EXPECT_GT(shared_write, hit);
}

TEST(DirectoryCC, MessagesConserveWithTraffic) {
  CcFixture f;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    f.cc.access(static_cast<CoreId>(rng.next_below(16)),
                rng.next_below(64) * 64,
                rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
  }
  // Every message carries at least a header.
  EXPECT_GE(f.cc.traffic_bits(),
            f.cc.counters().get("messages") * f.cost.params().header_bits);
  EXPECT_EQ(f.cc.counters().get("accesses"), 500u);
  EXPECT_EQ(f.cc.counters().get("hits") + f.cc.counters().get("misses"),
            500u);
}

// Records every protocol packet the directory hands its traffic sink.
struct CapturingSink final : TrafficSink {
  struct Packet {
    CoreId src;
    CoreId dst;
    std::int32_t vn;
    std::uint64_t payload_bits;
  };
  void on_packet(CoreId src, CoreId dst, std::int32_t vn,
                 std::uint64_t payload_bits) override {
    packets.push_back({src, dst, vn, payload_bits});
  }
  /// Destinations of the requests `home` sent (Inv, FwdGetS, FwdGetM).
  std::vector<CoreId> requests_from(CoreId home) const {
    std::vector<CoreId> dsts;
    for (const Packet& p : packets) {
      if (p.src == home && p.vn == vnet::kMemRequest) {
        dsts.push_back(p.dst);
      }
    }
    return dsts;
  }
  std::vector<Packet> packets;
};

// The full-map directory walks its sharer mask by set bit, so a write
// invalidates in ascending core order, whatever order the sharers joined.
TEST(DirectoryCC, InvalidatesSharersInCoreOrder) {
  CcFixture f;
  const Addr addr = 12 * 64;  // striped: line 12 lives at core 12
  const CoreId home = f.placement.home_of_block(addr / 64);
  ASSERT_EQ(home, 12);
  for (const CoreId c : {5, 2, 9}) {
    f.cc.access(c, addr, MemOp::kRead);
  }
  CapturingSink sink;
  f.cc.set_traffic_sink(&sink);
  f.cc.access(0, addr, MemOp::kWrite);
  EXPECT_EQ(sink.requests_from(home), (std::vector<CoreId>{2, 5, 9}));
  EXPECT_EQ(f.cc.counters().get("inv"), 3u);
}

// A 32x32 mesh needs 16 mask words per line; the walk crosses words in
// core order, the directory charges P = 1024 sharer bits per tracked
// line, and the explicit M owner is the one forwarded to after a read
// downgrade and forgotten after a PutM.
TEST(DirectoryCC, FullMapAt1024Cores) {
  const Mesh mesh{32, 32};
  const CostModel cost{mesh, CostModelParams{}};
  const Placement placement = Placement::striped(1024);
  DirCcParams params;
  params.private_cache = CacheParams{128, 2, 64};  // one set, two ways
  DirectoryCC cc{mesh, cost, params, placement};
  CapturingSink sink;
  cc.set_traffic_sink(&sink);

  const Addr line = 500;  // home core 500
  const Addr addr = line * 64;
  for (const CoreId c : {1000, 3, 64}) {
    cc.access(c, addr, MemOp::kRead);
  }
  sink.packets.clear();
  cc.access(0, addr, MemOp::kWrite);
  EXPECT_EQ(sink.requests_from(500), (std::vector<CoreId>{3, 64, 1000}));
  cc.access(7, 501 * 64, MemOp::kRead);
  EXPECT_EQ(cc.directory_bits(), 2u * (2 + 1024));

  // Core 1000 takes the line in M; core 64's read is forwarded to it.
  cc.access(1000, addr, MemOp::kWrite);
  sink.packets.clear();
  cc.access(64, addr, MemOp::kRead);
  EXPECT_EQ(sink.requests_from(500), (std::vector<CoreId>{1000}));
  EXPECT_EQ(cc.counters().get("fwd_gets"), 1u);
  // After the downgrade both cores share, in core order.
  sink.packets.clear();
  cc.access(3, addr, MemOp::kWrite);
  EXPECT_EQ(sink.requests_from(500), (std::vector<CoreId>{64, 1000}));

  // Core 3 owns the line in M.  Two more lines fill its one set, and the
  // line leaves by PutM: the next read finds no owner and goes to DRAM.
  const std::uint64_t putm = cc.counters().get("putm");
  cc.access(3, 502 * 64, MemOp::kRead);
  cc.access(3, 503 * 64, MemOp::kRead);
  EXPECT_EQ(cc.counters().get("putm"), putm + 1);
  const std::uint64_t dram = cc.counters().get("dram_fills");
  sink.packets.clear();
  cc.access(5, addr, MemOp::kRead);
  EXPECT_EQ(cc.counters().get("dram_fills"), dram + 1);
  EXPECT_EQ(sink.requests_from(500), std::vector<CoreId>{});
  sink.packets.clear();
  cc.access(6, addr, MemOp::kWrite);
  EXPECT_EQ(sink.requests_from(500), (std::vector<CoreId>{5}));
  EXPECT_EQ(cc.distinct_resident_lines(), 4u);  // 500, 501, 502, 503
}

// Reference model for the differential test: the MSI protocol over a
// std::map of entries, each with a sorted std::vector of sharers (the
// owner is sharers[0] in M).  Private caches are em2::Cache, which
// tests/mem/test_cache.cpp checks against its own reference.
class RefDirectory {
 public:
  RefDirectory(const Mesh& mesh, const CostModel& cost,
               const DirCcParams& params, const Placement& placement,
               TrafficSink& sink)
      : cost_(cost), params_(params), placement_(placement), sink_(sink) {
    for (CoreId c = 0; c < mesh.num_cores(); ++c) {
      caches_.emplace_back(params.private_cache);
    }
    num_cores_ = static_cast<std::uint64_t>(mesh.num_cores());
  }

  CcAccessResult access(CoreId core, Addr addr, MemOp op) {
    ++counts["accesses"];
    const Addr line = addr / params_.private_cache.line_bytes;
    Cache& cache = caches_[static_cast<std::size_t>(core)];
    const auto cstate = static_cast<MsiState>(
        cache.state_of(line).value_or(0));
    const std::uint64_t line_bits =
        std::uint64_t{params_.private_cache.line_bytes} * 8;
    const std::uint64_t addr_bits = cost_.params().addr_bits;
    CcAccessResult r;
    Cost latency = params_.hit_latency;
    if (cstate == MsiState::kModified ||
        (op == MemOp::kRead && cstate == MsiState::kShared)) {
      cache.touch(line);
      ++counts["hits"];
      r.hit = true;
    } else if (op == MemOp::kRead) {
      ++counts["misses"];
      const CoreId home = placement_.home_of_block(line);
      latency += send(core, home, addr_bits, "gets", false) +
                 params_.dir_latency;
      Entry& e = dir_[line];
      if (e.state == MsiState::kModified) {
        const CoreId owner = e.sharers[0];
        latency += send(home, owner, addr_bits, "fwd_gets", false);
        latency += send(owner, core, line_bits, "data_owner", true);
        send(owner, home, line_bits, "wb_downgrade", true);
        caches_[static_cast<std::size_t>(owner)].set_state(
            line, static_cast<std::uint8_t>(MsiState::kShared));
      } else {
        if (e.state == MsiState::kInvalid) {
          latency += params_.dram_latency;
          ++counts["dram_fills"];
        }
        latency += send(home, core, line_bits, "data_home", true);
      }
      e.state = MsiState::kShared;
      const auto at = std::lower_bound(e.sharers.begin(), e.sharers.end(),
                                       core);
      if (at == e.sharers.end() || *at != core) {
        e.sharers.insert(at, core);
      }
      evict(core, cache.fill(line,
                             static_cast<std::uint8_t>(MsiState::kShared),
                             false));
    } else {
      ++counts["misses"];
      const CoreId home = placement_.home_of_block(line);
      const bool upgrade = cstate == MsiState::kShared;
      latency += send(core, home, addr_bits, upgrade ? "upgrade" : "getm",
                      false) +
                 params_.dir_latency;
      Entry& e = dir_[line];
      if (e.state == MsiState::kModified) {
        const CoreId owner = e.sharers[0];
        latency += send(home, owner, addr_bits, "fwd_getm", false);
        latency += send(owner, core, line_bits, "data_owner", true);
        caches_[static_cast<std::size_t>(owner)].invalidate(line);
      } else {
        Cost worst = 0;
        for (const CoreId s : e.sharers) {
          if (s != core) {
            const Cost inv = send(home, s, addr_bits, "inv", false);
            const Cost ack = send(s, core, 0, "inv_ack", true);
            caches_[static_cast<std::size_t>(s)].invalidate(line);
            worst = std::max(worst, inv + ack);
          }
        }
        latency += worst;
        if (e.state == MsiState::kInvalid) {
          latency += params_.dram_latency;
          ++counts["dram_fills"];
        }
        latency += upgrade ? send(home, core, 0, "upgrade_ack", true)
                           : send(home, core, line_bits, "data_home", true);
      }
      e.state = MsiState::kModified;
      e.sharers = {core};
      evict(core, cache.fill(line,
                             static_cast<std::uint8_t>(MsiState::kModified),
                             true));
    }
    r.latency = latency;
    total_latency += latency;
    return r;
  }

  std::uint64_t directory_bits() const {
    std::uint64_t tracked = 0;
    for (const auto& [line, e] : dir_) {
      tracked += e.state != MsiState::kInvalid ? 1 : 0;
    }
    return tracked * (2 + num_cores_);
  }
  std::uint64_t distinct_resident_lines() const {
    std::uint64_t n = 0;
    for (const auto& [line, e] : dir_) {
      n += e.state != MsiState::kInvalid && !e.sharers.empty() ? 1 : 0;
    }
    return n;
  }
  std::uint64_t total_valid_lines() const {
    std::uint64_t n = 0;
    for (const Cache& c : caches_) {
      n += c.valid_lines();
    }
    return n;
  }

  std::map<std::string, std::uint64_t> counts;
  std::uint64_t traffic_bits = 0;
  Cost total_latency = 0;

 private:
  struct Entry {
    MsiState state = MsiState::kInvalid;
    std::vector<CoreId> sharers;
  };

  Cost send(CoreId src, CoreId dst, std::uint64_t bits, const char* name,
            bool reply) {
    ++counts[name];
    ++counts["messages"];
    traffic_bits += bits + cost_.params().header_bits;
    const int vn = reply ? vnet::kMemReply : vnet::kMemRequest;
    if (src != dst) {
      sink_.on_packet(src, dst, vn, bits);
    }
    return cost_.message(src, dst, bits, vn);
  }
  void evict(CoreId core, const CacheAccessResult& fill) {
    if (!fill.evicted) {
      return;
    }
    const CoreId home = placement_.home_of_block(fill.victim_line);
    Entry& e = dir_[fill.victim_line];
    const bool modified =
        static_cast<MsiState>(fill.victim_state) == MsiState::kModified;
    send(core, home,
         modified ? std::uint64_t{params_.private_cache.line_bytes} * 8 : 0,
         modified ? "putm" : "puts", modified);
    e.sharers.erase(std::remove(e.sharers.begin(), e.sharers.end(), core),
                    e.sharers.end());
    if (e.sharers.empty()) {
      e.state = MsiState::kInvalid;
    }
  }

  const CostModel& cost_;
  DirCcParams params_;
  const Placement& placement_;
  TrafficSink& sink_;
  std::vector<Cache> caches_;
  std::map<Addr, Entry> dir_;
  std::uint64_t num_cores_ = 0;
};

struct DirDiffCase {
  const char* name;
  std::int32_t width;
  std::int32_t height;
};
void PrintTo(const DirDiffCase& c, std::ostream* os) { *os << c.name; }
class DirectoryDifferential : public ::testing::TestWithParam<DirDiffCase> {
};

// Seeded random access streams over a small line pool, with private
// caches small enough to evict: every result, every packet in order, and
// the counters, traffic, latency, occupancy and directory size match the
// reference.  The meshes cover one mask word, a partial second word and
// sixteen words.
TEST_P(DirectoryDifferential, MatchesSortedVectorReference) {
  const DirDiffCase& dc = GetParam();
  const Mesh mesh{dc.width, dc.height};
  const CostModel cost{mesh, CostModelParams{}};
  const Placement placement = Placement::striped(mesh.num_cores());
  DirCcParams params;
  params.private_cache = CacheParams{4 * 2 * 64, 2, 64};  // 4 sets x 2 ways
  for (const std::uint64_t seed : {1ull, 2ull}) {
    DirectoryCC cc{mesh, cost, params, placement};
    CapturingSink got;
    cc.set_traffic_sink(&got);
    CapturingSink want;
    RefDirectory ref{mesh, cost, params, placement, want};
    // Sixteen cores spread over the whole mesh (off the word-aligned
    // ones where there is room) keep lines shared while their sharer
    // sets span every mask word.
    const CoreId n = mesh.num_cores();
    std::vector<CoreId> cores;
    for (CoreId i = 0; i < 16; ++i) {
      cores.push_back(i * n / 16 + (n / 16 > 2 ? i % 3 : 0));
    }
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      const CoreId core = cores[rng.next_below(cores.size())];
      const Addr addr = rng.next_below(24) * 64 + rng.next_below(64);
      const MemOp op = rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead;
      const CcAccessResult a = cc.access(core, addr, op);
      const CcAccessResult b = ref.access(core, addr, op);
      ASSERT_EQ(a.hit, b.hit) << "step " << step;
      ASSERT_EQ(a.latency, b.latency) << "step " << step;
      ASSERT_EQ(got.packets.size(), want.packets.size()) << "step " << step;
    }
    for (std::size_t i = 0; i < got.packets.size(); ++i) {
      const auto& g = got.packets[i];
      const auto& w = want.packets[i];
      ASSERT_EQ(std::tie(g.src, g.dst, g.vn, g.payload_bits),
                std::tie(w.src, w.dst, w.vn, w.payload_bits))
          << "packet " << i;
    }
    for (const auto& [name, count] : ref.counts) {
      EXPECT_EQ(cc.counters().get(name), count) << name;
    }
    EXPECT_EQ(cc.traffic_bits(), ref.traffic_bits);
    EXPECT_EQ(cc.total_latency(), ref.total_latency);
    EXPECT_EQ(cc.total_valid_lines(), ref.total_valid_lines());
    EXPECT_EQ(cc.distinct_resident_lines(), ref.distinct_resident_lines());
    EXPECT_EQ(cc.directory_bits(), ref.directory_bits());
    EXPECT_GT(ref.counts["inv"], 0u);
    EXPECT_GT(ref.counts["putm"], 0u);
    EXPECT_GT(ref.counts["fwd_gets"], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, DirectoryDifferential,
    ::testing::Values(DirDiffCase{"Cores16", 4, 4},
                      DirDiffCase{"Cores72", 9, 8},
                      DirDiffCase{"Cores1024", 32, 32}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

// Protocol invariant sweep: after any random access stream, every line is
// either uncached, in M at exactly one core, or in S at >= 1 cores — we
// verify via the replication/occupancy accessors.
class CcInvariants : public ::testing::TestWithParam<int> {};

TEST_P(CcInvariants, OccupancyConsistent) {
  CcFixture f;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 1000; ++i) {
    f.cc.access(static_cast<CoreId>(rng.next_below(16)),
                rng.next_below(32) * 64,
                rng.next_bool(0.4) ? MemOp::kWrite : MemOp::kRead);
  }
  EXPECT_GE(f.cc.total_valid_lines(), f.cc.distinct_resident_lines());
  EXPECT_GE(f.cc.replication_factor(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcInvariants, ::testing::Range(1, 9));

}  // namespace
}  // namespace em2
