#include "noc/contention.hpp"

#include <algorithm>
#include <cmath>

#include "noc/reliable.hpp"
#include "util/assert.hpp"

namespace em2 {

double md1_wait_factor(double rho, double max_utilization) noexcept {
  if (std::isnan(rho) || rho <= 0.0) {
    return 0.0;
  }
  // The never-inf/NaN contract holds even for a caller-supplied clamp at
  // or past 1.0: the effective cap stays strictly below the pole.
  const double cap = std::min(max_utilization, 1.0 - 1e-9);
  const double clamped = std::min(rho, cap);
  return clamped / (2.0 * (1.0 - clamped));
}

HopLatencies corrected_hop_latencies(
    const CostModelParams& params,
    const std::array<VnetLoad, vnet::kNumVnets>& loads,
    const ContentionParams& cparams) {
  HopLatencies hop;
  const double base = static_cast<double>(params.per_hop_cycles);
  for (std::size_t vn = 0; vn < loads.size(); ++vn) {
    const VnetLoad& l = loads[vn];
    // Pollaczek-Khinchine effective service of the competing mix; falls
    // back to one flit-cycle when the moments are degenerate.
    const double service =
        (std::isfinite(l.mean_service) && l.mean_service > 0.0 &&
         std::isfinite(l.mean_service_sq) && l.mean_service_sq > 0.0)
            ? l.mean_service_sq / l.mean_service
            : 1.0;
    hop.cycles[vn] =
        base +
        md1_wait_factor(l.utilization, cparams.max_utilization) * service;
  }
  return hop;
}

std::array<VnetLoad, vnet::kNumVnets> analyze_offered_load(
    const Mesh& mesh, const CostModel& cost,
    const std::vector<TrafficEvent>& events) {
  std::array<VnetLoad, vnet::kNumVnets> loads{};
  if (events.empty()) {
    return loads;
  }
  const auto links =
      static_cast<std::size_t>(mesh.num_cores()) * kNumDirections;
  // Per directed link: flit-cycles offered (total across vnets — physical
  // bandwidth is shared — and per vnet, for the flit-weighted
  // aggregation) plus the arrival-weighted service moments of the FULL
  // mix crossing the link, since a packet queues behind whatever is in
  // service there regardless of vnet.
  std::vector<double> link_total(links, 0.0);
  std::vector<double> link_by_vnet(links * vnet::kNumVnets, 0.0);
  std::vector<double> link_arrivals(links, 0.0);
  std::vector<double> link_m1(links, 0.0);
  std::vector<double> link_m2(links, 0.0);
  Cycle makespan = 1;
  for (const TrafficEvent& e : events) {
    EM2_ASSERT(e.vnet >= 0 && e.vnet < vnet::kNumVnets,
               "traffic event vnet out of range");
    const auto vn = static_cast<std::size_t>(e.vnet);
    const double service = static_cast<double>(cost.flits_for(e.payload_bits));
    const std::int32_t hops = mesh.hops(e.src, e.dst);
    // Walk the XY path, charging the packet's serialization time to every
    // directed link it occupies.
    CoreId at = e.src;
    while (at != e.dst) {
      const Direction dir = mesh.route_xy(at, e.dst);
      const std::size_t link =
          static_cast<std::size_t>(at) * kNumDirections +
          static_cast<std::size_t>(dir);
      link_total[link] += service;
      link_by_vnet[link * vnet::kNumVnets + vn] += service;
      link_arrivals[link] += 1.0;
      link_m1[link] += service;
      link_m2[link] += service * service;
      at = mesh.neighbor(at, dir);
    }
    // The last injection plus its own delivery bounds the window the
    // offered flit-cycles must fit into.
    const Cycle done =
        e.when + cost.packet_latency(hops, e.payload_bits) + 1;
    makespan = std::max(makespan, done);
  }
  const double window = static_cast<double>(makespan);
  for (std::size_t vn = 0; vn < loads.size(); ++vn) {
    // Aggregate over the links this vnet's flits use, weighted by its own
    // flit-cycles there: the total occupancy it queues behind and the
    // competing mix's service moments on those links.
    double seen_num = 0.0;
    double m1_num = 0.0;
    double m2_num = 0.0;
    double den = 0.0;
    for (std::size_t link = 0; link < links; ++link) {
      const double own = link_by_vnet[link * vnet::kNumVnets + vn];
      if (own <= 0.0) {
        continue;
      }
      seen_num += own * (link_total[link] / window);
      m1_num += own * (link_m1[link] / link_arrivals[link]);
      m2_num += own * (link_m2[link] / link_arrivals[link]);
      den += own;
    }
    if (den <= 0.0) {
      continue;  // vnet carried nothing: zero utilization, unit service
    }
    loads[vn].utilization = seen_num / den;
    loads[vn].mean_service = m1_num / den;
    loads[vn].mean_service_sq = m2_num / den;
  }
  return loads;
}

void prepare_calibration_events(std::vector<TrafficEvent>& events,
                                std::uint64_t max_packets) {
  const auto by_time = [](const TrafficEvent& a, const TrafficEvent& b) {
    return a.when < b.when;
  };
  // A capped recorder's events arrive sorted: skip the sort's scratch.
  if (!std::is_sorted(events.begin(), events.end(), by_time)) {
    std::stable_sort(events.begin(), events.end(), by_time);
  }
  if (events.size() > max_packets) {
    events.resize(static_cast<std::size_t>(max_packets));
  }
}

namespace {

/// The lossy replay leg: same injection schedule and closed-loop window,
/// but every packet goes through the reliable transport so drops, ACKs,
/// and retransmissions load the measured fabric.
CalibrationReport replay_on_fabric_lossy(
    const Mesh& mesh, const CostModel& cost,
    const std::vector<TrafficEvent>& events, const CalibrationOptions& opts,
    const FaultInjector& faults) {
  ReliableNetwork net(mesh, opts.network, faults);
  CalibrationReport report;
  std::size_t next = 0;
  std::uint64_t sent = 0;
  while (next < events.size() || !net.idle()) {
    if (net.now() >= opts.max_cycles) {
      report.drained = false;
      break;
    }
    while (next < events.size() && events[next].when <= net.now() &&
           (opts.max_outstanding == 0 ||
            net.live_messages() < opts.max_outstanding)) {
      const TrafficEvent& e = events[next];
      net.send(e.src, e.dst, e.vnet,
               static_cast<std::int32_t>(cost.flits_for(e.payload_bits)));
      ++sent;
      ++next;
    }
    net.step();
    net.drain_delivered([&](const Delivery& d) {
      report.measured_total_latency += d.delivered - d.injected;
    });
  }
  report.packets = sent;
  report.cycles = net.now();
  report.utilization = net.utilization();
  report.drops = net.drops();
  report.retransmissions = net.retransmissions();
  return report;
}

}  // namespace

CalibrationReport replay_on_fabric(const Mesh& mesh, const CostModel& cost,
                                   const std::vector<TrafficEvent>& events,
                                   const CalibrationOptions& opts,
                                   const FaultInjector* faults) {
  if (faults != nullptr && faults->spec().drop_rate > 0.0) {
    return replay_on_fabric_lossy(mesh, cost, events, opts, *faults);
  }
  Network net(mesh, opts.network);
  CalibrationReport report;
  std::size_t next = 0;
  std::uint64_t id = 0;
  while (next < events.size() || !net.idle()) {
    if (net.now() >= opts.max_cycles) {
      report.drained = false;
      break;
    }
    while (next < events.size() && events[next].when <= net.now() &&
           (opts.max_outstanding == 0 ||
            net.packets_in_flight() < opts.max_outstanding)) {
      const TrafficEvent& e = events[next];
      Packet p;
      p.id = id++;
      p.src = e.src;
      p.dst = e.dst;
      p.vnet = e.vnet;
      p.flits = static_cast<std::int32_t>(cost.flits_for(e.payload_bits));
      net.inject(p);
      ++next;
    }
    net.step();
    // Summed per step, so the replay holds O(window) deliveries.
    net.drain_delivered([&](const Delivery& d) {
      report.measured_total_latency += d.delivered - d.injected;
    });
  }
  report.packets = id;
  report.cycles = net.now();
  report.utilization = net.utilization();
  return report;
}

Cost predict_total_latency(const CostModel& cost,
                           const std::vector<TrafficEvent>& events) {
  Cost total = 0;
  const Mesh& mesh = cost.mesh();
  for (const TrafficEvent& e : events) {
    // +1: the fabric's ejection cycle (a delivered packet leaves through
    // the local port one cycle after its last hop), so the prediction is
    // in the same units as measured_total_latency.
    total += cost.packet_latency_on(e.vnet, mesh.hops(e.src, e.dst),
                                    e.payload_bits) + 1;
  }
  return total;
}

}  // namespace em2
