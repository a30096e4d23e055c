// perfbench: the end-to-end System::run benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Every workload is a closed loop of serial System::run calls on a
// 256-core mesh (one caller, the next call issued when the previous one
// returns).  A "rep" is one pass over the workload's cells; the timed
// phase runs reps for --seconds and the end-to-end throughput comes from
// the median rep.  --trace 1 is the separate traced run: the same reps,
// plus a layer pass that calls each module's public functions directly
// inside spans, from which the per-layer metrics are derived.  NOTES.md
// says why each workload exists and which layer metric moves which
// end-to-end metric.
//
// Output: human-readable lines, then as the LAST line of stdout one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer ones.  Spans go to
// DIR/spans-<workload>-seed<N>.json at exit.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "api/system.hpp"
#include "coherence/cc_sim.hpp"
#include "em2/trace_sim.hpp"
#include "em2ra/hybrid_sim.hpp"
#include "placement/placement.hpp"
#include "sim/modes.hpp"
#include "sim/exec_system.hpp"
#include "trace/stream/codec.hpp"
#include "trace/stream/convert.hpp"
#include "trace/stream/reader.hpp"
#include "workload/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using em2::MemArch;
using em2::RunMode;
using em2::RunReport;
using em2::RunSpec;
using em2::System;
using em2::workload::Workload;

constexpr std::int32_t kThreads = 256;
constexpr std::int32_t kScale = 1;
/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetups = 3;
/// The timed phase always runs at least this many reps, so the median
/// is a median even when one rep outlasts --seconds.  A traced iteration
/// costs about three reps, so the traced run settles for two.
constexpr int kMinReps = 3;
constexpr int kMinTracedIterations = 2;
/// stream-cold's RunSpec::stream_window.
constexpr std::uint64_t kStreamWindow = 4ull << 20;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder.  A span has a name, start and end, its parent
/// (the innermost span open when it began) and the run it belongs to (a
/// set-up, or one iteration of the timed phase).  Disabled, it records
/// nothing; every Scope then costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;  ///< the cell a span belongs to, if any
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int32_t parent = -1;
    std::string run;
    std::int64_t children_ns = 0;  ///< summed durations of direct children

    std::int64_t duration_ns() const { return end_ns - start_ns; }
    double self_ms() const {
      return static_cast<double>(duration_ns() - children_ns) / 1e6;
    }
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_run(std::string run) { run_ = std::move(run); }

  std::int32_t open(const std::string& name, const std::string& detail) {
    if (!enabled_) {
      return -1;
    }
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, detail, now_ns(), -1,
                          stack_.empty() ? -1 : stack_.back(), run_, 0});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    if (index < 0) {
      return;
    }
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].children_ns +=
          span.duration_ns();
    }
    stack_.pop_back();
  }

  /// Sum of self times (duration minus direct children) of the spans
  /// named `name` in run `run`.
  double self_ms(const std::string& name, const std::string& run) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && s.run == run) {
        total += s.self_ms();
      }
    }
    return total;
  }

  /// Sum of durations of the spans named `name` in run `run`.
  double total_ms(const std::string& name, const std::string& run) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name && s.run == run) {
        ns += s.duration_ns();
      }
    }
    return static_cast<double>(ns) / 1e6;
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "  {\"id\": %zu, \"name\": \"%s\", \"cell\": \"%s\", "
                    "\"run\": \"%s\", \"parent\": %d, \"start_ns\": %" PRId64
                    ", \"end_ns\": %" PRId64 ", \"self_ms\": %.6f}%s\n",
                    i, s.name.c_str(), s.detail.c_str(), s.run.c_str(),
                    s.parent, s.start_ns, s.end_ns, s.self_ms(),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name,
        const std::string& detail = {})
      : tracer_(tracer), index_(tracer.open(name, detail)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// ----------------------------------------------------------------- checks

/// FNV-1a over every deterministic RunReport field (counts, costs,
/// cycles, the run-length histograms and the exec/cc/noc sections).
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      add(c);
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) {
      add(x);
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t report_digest(const RunReport& r) {
  Digest d;
  d.add(r.arch_label);
  d.add(r.accesses);
  d.add(r.migrations);
  d.add(r.evictions);
  d.add(r.remote_accesses);
  d.add(r.replicated_reads);
  d.add(r.network_cost);
  d.add(r.traffic_bits);
  d.add(r.messages);
  d.add(r.cost_per_access);
  const em2::RunLengthReport& rl = r.run_lengths;
  d.add(rl.accesses_by_run_length.bins());
  d.add(rl.runs_by_run_length.bins());
  d.add(rl.total_accesses);
  d.add(rl.native_accesses);
  d.add(rl.nonnative_accesses);
  d.add(rl.migrations);
  d.add(rl.nonnative_runs);
  d.add(rl.nonnative_runs_len1);
  d.add(rl.return_to_origin_runs);
  d.add(rl.return_to_origin_runs_len1);
  if (r.exec) {
    d.add(r.exec->cycles);
    d.add(r.exec->instructions);
    d.add(r.exec->consistent);
    d.add(r.exec->timed_out);
    d.add(r.exec->watchdog_fired);
    d.add(r.exec->violations.size());
    d.add(r.exec->finish_cycle);
  }
  if (r.cc) {
    d.add(r.cc->replication_factor);
    d.add(r.cc->directory_bits);
  }
  if (r.noc) {
    const RunReport::NocUtilization& n = *r.noc;
    d.add(n.contention);
    d.add(n.utilization);
    d.add(n.corrected_per_hop);
    d.add(n.calibration_packets);
    d.add(n.calibration_cycles);
    d.add(n.calibration_drops);
    d.add(n.calibration_retransmissions);
    d.add(n.calibration_drained);
    d.add(n.measured_total_latency);
    d.add(n.predicted_total_latency);
    d.add(n.uncontended_total_latency);
  }
  return d.value();
}

/// Per-call and final output checks.  Every System::run call is one
/// attempt; an attempt fails when its report breaks any check.  The
/// reference digest of each cell is the first one seen in the process
/// (set-up 0's warm-up rep, or the first timed rep), so every later call
/// — across set-ups, reps and the traced run — must reproduce it.
class Checks {
 public:
  void call(std::size_t cell, const std::string& label,
            const RunReport& report,
            const std::vector<std::string>& extra_failures = {}) {
    ++attempted_;
    if (cell >= refs_.size()) {
      refs_.resize(cell + 1);
      per_cell_attempts_.resize(cell + 1, 0);
      per_cell_failed_.resize(cell + 1, 0);
    }
    ++per_cell_attempts_[cell];
    std::vector<std::string> why = extra_failures;
    if (!report.error.empty()) {
      why.push_back("error: " + report.error);
    }
    const std::uint64_t digest = report_digest(report);
    if (!refs_[cell]) {
      refs_[cell] = digest;
    } else if (*refs_[cell] != digest) {
      why.push_back("report digest differs from the cell's first report");
    }
    if (report.exec) {
      if (!report.exec->consistent) {
        why.push_back("exec run not consistent");
      }
      if (report.exec->timed_out) {
        why.push_back("exec run timed out");
      }
      if (report.exec->watchdog_fired) {
        why.push_back("exec watchdog fired");
      }
    }
    if (report.noc && !report.noc->calibration_drained) {
      why.push_back("calibration did not drain");
    }
    if (!why.empty()) {
      ++failed_;
      ++per_cell_failed_[cell];
      for (const std::string& w : why) {
        std::fprintf(stderr, "check failed [%s]: %s\n", label.c_str(),
                     w.c_str());
      }
    }
  }

  /// A check over a whole cell that fails after the fact (e.g. a
  /// sharded report that differs from the sequential one): every call
  /// made for that cell counts as failed.
  void fail_cell(std::size_t cell, const std::string& label,
                 const std::string& why) {
    std::fprintf(stderr, "check failed [%s]: %s\n", label.c_str(),
                 why.c_str());
    failed_ += per_cell_attempts_[cell] - per_cell_failed_[cell];
    per_cell_failed_[cell] = per_cell_attempts_[cell];
  }

  /// A benchmark-level check that is not about one System::run call
  /// (e.g. the traced layer pass disagreeing with System::run).
  void require(bool ok, const std::string& what) {
    if (!ok) {
      ok_ = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }

  std::optional<std::uint64_t> reference(std::size_t cell) const {
    return refs_.at(cell);
  }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return ok_ && failed_ == 0; }

  /// Digest over all cells' reference digests, in cell order.
  std::uint64_t workload_digest() const {
    Digest d;
    for (const auto& ref : refs_) {
      d.add(ref.value_or(0));
    }
    return d.value();
  }

 private:
  std::vector<std::optional<std::uint64_t>> refs_;
  std::vector<std::uint64_t> per_cell_attempts_;
  std::vector<std::uint64_t> per_cell_failed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------- CPU rotation

/// Moves the calling thread to the next CPUs of its initial affinity mask
/// at every step.  On a shared host each CPU slows down and recovers on
/// its own (other tenants' load on the sibling hardware thread), for tens
/// of seconds at a time; a run left on one CPU reports that CPU's state.
/// Stepping once per set-up and once per rep makes each median sample
/// every CPU.  Threads the program starts inherit the mask current at
/// their creation.  Without a second CPU, or if the host refuses, the
/// run stays where the scheduler put it.
class CpuRotation {
 public:
  /// `width` CPUs per step: the most threads the workload runs at once.
  explicit CpuRotation(std::size_t width) : width_(width) {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof initial_, &initial_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &initial_)) {
        cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > width_) {
      (void)sched_setaffinity(0, sizeof initial_, &initial_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.size() <= width_) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t k = 0; k < width_; ++k) {
      CPU_SET(cpus_[(next_ + k) % cpus_.size()], &set);
    }
    ++next_;
    (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::size_t width_;
  cpu_set_t initial_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --------------------------------------------------------------- metrics

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Resident high-water mark reset: after this, VmHWM covers only what
/// happens next (Linux clear_refs, value 5).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- workloads

/// One workload of the benchmark: a list of cells (System::run calls).
/// A fresh object is built for each set-up; the last one runs the timed
/// phase.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Generates inputs, builds what the workload keeps warm, and runs one
  /// warm-up rep.
  virtual void setup(Tracer& tracer, Checks& checks) = 0;

  /// One rep: every cell through System::run, in cell order.  With
  /// `layered` (traced run), each call is followed by the same cell
  /// through the layers' own public functions, so both halves of the
  /// comparison see the same host conditions.  Returns accesses run.
  std::uint64_t rep(Tracer& tracer, Checks& checks, bool layered) {
    begin_rep();
    std::uint64_t accesses = 0;
    for (std::size_t c = 0; c < num_cells(); ++c) {
      const Scope s(tracer, "cell", label(c));
      accesses += run_cell(tracer, checks, c);
      if (layered) {
        layer(tracer, checks, c);
      }
    }
    if (layered) {
      after_layers(tracer, checks);
    }
    return accesses;
  }

  /// Per-layer metrics of one traced rep (the spans of run `run`).
  virtual Metrics layer_metrics(const Tracer& tracer,
                                const std::string& run) const = 0;
  /// Checks that need a second computation, run once after timing.
  virtual void final_checks(Checks&) {}
  /// End-to-end extras printed beside the metrics.
  virtual void print_extras() const {}

 protected:
  virtual std::size_t num_cells() const = 0;
  virtual std::string label(std::size_t cell) const = 0;
  virtual void begin_rep() {}
  /// The System::run call of `cell`, inside an "api.run" span, checked.
  virtual std::uint64_t run_cell(Tracer& tracer, Checks& checks,
                                 std::size_t cell) = 0;
  /// The direct layer calls that make up `cell`'s System::run.
  virtual void layer(Tracer& tracer, Checks& checks, std::size_t cell) = 0;
  virtual void after_layers(Tracer&, Checks&) {}
};

em2::SystemConfig system_config() {
  em2::SystemConfig cfg;
  cfg.threads = kThreads;
  return cfg;
}

Workload generate(Tracer& tracer, const std::string& name,
                  std::uint64_t seed) {
  const Scope s(tracer, "workload.generate", name);
  return em2::workload::make_workload(name, kThreads, kScale, seed);
}

std::unique_ptr<em2::Placement> build_placement(Tracer& tracer,
                                                const Workload& w) {
  const Scope s(tracer, "placement.build", w.name());
  return em2::make_placement("first-touch", w.traces(), kThreads);
}

/// Counters that a direct layer call and System::run must agree on.
bool same_counts(const RunReport& a, const em2::CounterSet& b) {
  return a.accesses == b.get("accesses") &&
         a.migrations == b.get("migrations") &&
         a.evictions == b.get("evictions");
}

/// Sums of the shared RunReport counters over cells of one arch.
struct ArchTotals {
  std::uint64_t accesses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t remote_accesses = 0;
  std::uint64_t messages = 0;

  void add(const RunReport& r) {
    accesses += r.accesses;
    migrations += r.migrations;
    evictions += r.evictions;
    remote_accesses += r.remote_accesses;
    messages += r.messages;
  }
};

/// The em2 / em2ra engine metrics shared by the trace-mode workloads.
void engine_metrics(Metrics& m, const ArchTotals& em2, double em2_ms,
                    const ArchTotals& ra, double ra_ms) {
  m["em2.engine_ms"] = em2_ms;
  m["em2.ns_per_access"] =
      ratio(em2_ms * 1e6, static_cast<double>(em2.accesses));
  m["em2.migrations"] = static_cast<double>(em2.migrations);
  m["em2.evictions"] = static_cast<double>(em2.evictions);
  m["em2.evictions_per_migration"] = ratio(
      static_cast<double>(em2.evictions), static_cast<double>(em2.migrations));
  m["em2ra.ns_per_access"] =
      ratio(ra_ms * 1e6, static_cast<double>(ra.accesses));
  m["em2ra.migrations"] = static_cast<double>(ra.migrations);
  m["em2ra.remote_accesses"] = static_cast<double>(ra.remote_accesses);
}

// ---- trace-warm ---------------------------------------------------------

/// In-memory trace mode on a warm System: five registry workloads x
/// {em2, em2-ra distance:4, em2-ra history, cc}.  Placements are built by
/// set-up's warm-up rep and served from System's cache afterwards.
class TraceWarm final : public Scenario {
 public:
  explicit TraceWarm(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer, Checks& checks) override {
    for (const char* name :
         {"ocean", "lu", "radix", "barnes", "sharing-mix"}) {
      workloads_.push_back(generate(tracer, name, seed_));
    }
    sys_ = std::make_unique<System>(system_config());
    const std::vector<RunSpec> specs = {
        {.arch = MemArch::kEm2},
        {.arch = MemArch::kEm2Ra, .policy = "distance:4"},
        {.arch = MemArch::kEm2Ra, .policy = "history"},
        {.arch = MemArch::kCc}};
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      for (const RunSpec& spec : specs) {
        cells_.push_back({w, spec});
      }
    }
    if (tracer.enabled()) {
      // The layer pass calls the engines with its own placements; the
      // warm-up rep builds System's (identical) cached ones.
      for (const Workload& w : workloads_) {
        placements_.push_back(build_placement(tracer, w));
      }
    }
    const Scope s(tracer, "warmup");
    (void)rep(tracer, checks, false);
  }

  Metrics layer_metrics(const Tracer& t,
                        const std::string& run) const override {
    ArchTotals em2, ra, cc;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const MemArch arch = cells_[c].spec.arch;
      (arch == MemArch::kEm2 ? em2 : arch == MemArch::kEm2Ra ? ra : cc)
          .add(last_[c]);
    }
    const double em2_ms = t.self_ms("em2.engine", run);
    const double dist_ms = t.self_ms("em2ra.engine.distance", run);
    const double hist_ms = t.self_ms("em2ra.engine.history", run);
    const double cc_ms = t.self_ms("coherence.engine", run);
    Metrics m;
    engine_metrics(m, em2, em2_ms, ra, dist_ms + hist_ms);
    m["em2ra.engine_ms.distance"] = dist_ms;
    m["em2ra.engine_ms.history"] = hist_ms;
    m["coherence.engine_ms"] = cc_ms;
    m["coherence.ns_per_access"] =
        ratio(cc_ms * 1e6, static_cast<double>(cc.accesses));
    m["coherence.messages"] = static_cast<double>(cc.messages);
    m["api.self_ms"] = t.total_ms("api.run", run) -
                       (em2_ms + dist_ms + hist_ms + cc_ms);
    return m;
  }

 protected:
  std::size_t num_cells() const override { return cells_.size(); }

  std::string label(std::size_t c) const override {
    const Cell& cell = cells_[c];
    std::string arch = em2::to_string(cell.spec.arch);
    if (cell.spec.arch == MemArch::kEm2Ra) {
      arch += "(" + cell.spec.policy + ")";
    }
    return workloads_[cell.workload].name() + "/" + arch;
  }

  std::uint64_t run_cell(Tracer& tracer, Checks& checks,
                         std::size_t c) override {
    last_.resize(cells_.size());
    {
      const Scope s(tracer, "api.run", label(c));
      last_[c] = sys_->run(workloads_[cells_[c].workload], cells_[c].spec);
    }
    checks.call(c, label(c), last_[c]);
    return last_[c].accesses;
  }

  void layer(Tracer& tracer, Checks& checks, std::size_t c) override {
    const Cell& cell = cells_[c];
    const em2::Mesh& mesh = sys_->mesh();
    const em2::CostModel& cost = sys_->cost_model();
    const em2::SystemConfig& cfg = sys_->config();
    const em2::TraceSet& traces = workloads_[cell.workload].traces();
    const em2::Placement& placement = *placements_[cell.workload];
    bool same = false;
    switch (cell.spec.arch) {
      case MemArch::kEm2: {
        em2::Em2RunReport r;
        {
          const Scope s(tracer, "em2.engine", label(c));
          r = em2::run_em2(traces, placement, mesh, cost, cfg.em2);
        }
        same = same_counts(last_[c], r.counters);
        break;
      }
      case MemArch::kEm2Ra: {
        em2::HybridRunReport r;
        {
          const Scope s(tracer,
                        cell.spec.policy == "history"
                            ? "em2ra.engine.history"
                            : "em2ra.engine.distance",
                        label(c));
          em2::StandardPolicy policy =
              em2::StandardPolicy::make(cell.spec.policy, mesh, cost);
          r = em2::run_em2ra(traces, placement, mesh, cost, cfg.em2,
                             policy);
        }
        same = same_counts(last_[c], r.em2.counters) &&
               last_[c].remote_accesses == r.remote_accesses;
        break;
      }
      case MemArch::kCc: {
        em2::DirCcParams cc = cfg.cc;
        cc.private_cache.line_bytes = traces.block_bytes();
        em2::CcRunReport r;
        {
          const Scope s(tracer, "coherence.engine", label(c));
          r = em2::run_cc(traces, placement, mesh, cost, cc);
        }
        same = last_[c].accesses == r.counters.get("accesses") &&
               last_[c].messages == r.counters.get("messages");
        break;
      }
    }
    checks.require(same, "layer pass disagrees with System::run on " +
                             label(c));
  }

 private:
  struct Cell {
    std::size_t workload;
    RunSpec spec;
  };

  std::uint64_t seed_;
  std::vector<Workload> workloads_;
  std::unique_ptr<System> sys_;
  std::vector<Cell> cells_;
  std::vector<std::unique_ptr<em2::Placement>> placements_;
  std::vector<RunReport> last_;
};

// ---- stream-cold --------------------------------------------------------

/// Out-of-core, contention-corrected trace mode: two EM2S files (ocean
/// verbatim, sharing-mix em2z) x {em2, em2-ra distance:4}, kMeasured
/// contention, a 4 MiB stream window and a fresh System every rep.  Raw
/// TraceSource runs bypass System's placement and calibration caches, so
/// every call pays first-touch placement, calibration and decode.
class StreamCold final : public Scenario {
 public:
  StreamCold(std::uint64_t seed, std::filesystem::path dir)
      : seed_(seed), dir_(std::move(dir)) {}
  ~StreamCold() override {
    std::error_code ec;
    for (const File& f : files_) {
      std::filesystem::remove(f.path, ec);
    }
  }
  StreamCold(const StreamCold&) = delete;
  StreamCold& operator=(const StreamCold&) = delete;

  void setup(Tracer& tracer, Checks& checks) override {
    const em2::em2s::Em2zCodec em2z;
    for (const auto& [name, codec] :
         {std::pair<std::string, std::string>{"ocean", "plain"},
          {"sharing-mix", "em2z"}}) {
      // The in-memory trace lives only until its file is written: the
      // timed phase holds nothing but the reader's window.
      const Workload w = generate(tracer, name, seed_);
      File f{name, codec, dir_ / (name + "." + codec + ".em2s"),
             w.traces().total_accesses(), 0};
      em2::TraceWriter::Options opts;
      if (codec == "em2z") {
        opts.codec = &em2z;
      }
      {
        const Scope s(tracer, "trace.write", name);
        if (!em2::write_trace_stream(f.path.string(), w.traces(), opts)) {
          throw std::runtime_error("cannot write " + f.path.string());
        }
      }
      f.bytes = std::filesystem::file_size(f.path);
      files_.push_back(f);
    }
    for (std::size_t f = 0; f < files_.size(); ++f) {
      for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra}) {
        cells_.push_back(
            {f, RunSpec{.arch = arch,
                        .policy = "distance:4",
                        .contention = em2::ContentionMode::kMeasured,
                        .stream_window = kStreamWindow}});
      }
    }
    const Scope s(tracer, "warmup");
    (void)rep(tracer, checks, false);
  }

  Metrics layer_metrics(const Tracer& t,
                        const std::string& run) const override {
    Metrics m;
    ArchTotals em2, ra;
    std::uint64_t decoded = 0, packets = 0, cycles = 0, peak = 0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const RunReport& r = last_[c];
      (cells_[c].spec.arch == MemArch::kEm2 ? em2 : ra).add(r);
      decoded += decoded_[c];
      peak = std::max(peak, peak_[c]);
      if (!r.noc) {
        continue;  // already counted as a failed call
      }
      packets += r.noc->calibration_packets;
      cycles += r.noc->calibration_cycles;
      m["noc.model_err_pct." + files_[cells_[c].file].workload + "." +
        em2::to_string(cells_[c].spec.arch)] =
          100.0 * model_error(std::span(&r, 1));
    }
    std::uint64_t bytes = 0, file_accesses = 0;
    for (const File& f : files_) {
      bytes += f.bytes;
      file_accesses += f.accesses;
    }
    const double placement_ms = t.self_ms("placement.stream_build", run);
    const double em2_ms = t.self_ms("em2.engine", run);
    const double ra_ms = t.self_ms("em2ra.engine.distance", run);
    const double none_ms = t.total_ms("api.run.none", run);
    // System::run(kMeasured) = placement + engine + calibration + self,
    // with calibration = kMeasured run - kNone run over the same source.
    const double calibration_ms = t.total_ms("api.run", run) - none_ms;
    engine_metrics(m, em2, em2_ms, ra, ra_ms);
    m["em2ra.engine_ms.distance"] = ra_ms;
    m["placement.stream_build_ms"] = placement_ms;
    m["trace.decode_ms.plain"] = t.self_ms("trace.decode.plain", run);
    m["trace.decode_ms.em2z"] = t.self_ms("trace.decode.em2z", run);
    m["trace.decode_acc_per_s"] =
        ratio(static_cast<double>(decoded) * 1e3,
              m["trace.decode_ms.plain"] + m["trace.decode_ms.em2z"]);
    m["trace.file_bytes_per_access"] = ratio(
        static_cast<double>(bytes), static_cast<double>(file_accesses));
    m["trace.peak_resident_bytes"] = static_cast<double>(peak);
    m["noc.calibration_ms"] = calibration_ms;
    m["noc.calibration_packets"] = static_cast<double>(packets);
    m["noc.calibration_cycles"] = static_cast<double>(cycles);
    m["noc.replay_cycles_per_s"] =
        ratio(static_cast<double>(cycles) * 1e3, calibration_ms);
    m["api.self_ms"] = none_ms - placement_ms - em2_ms - ra_ms;
    return m;
  }

  void final_checks(Checks& checks) override {
    // Each streamed report must equal its in-memory twin.  The traces are
    // regenerated here (same seed) so the timed phase stays out-of-core.
    Tracer off(false);
    std::vector<Workload> twins;
    for (const File& f : files_) {
      twins.push_back(generate(off, f.workload, seed_));
    }
    const System sys(system_config());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const RunReport twin =
          sys.run(twins[cells_[c].file].traces(), cells_[c].spec);
      if (report_digest(twin) != checks.reference(c)) {
        checks.fail_cell(c, label(c),
                         "streamed report differs from its in-memory twin");
      }
    }
  }

  void print_extras() const override {
    std::printf("model_err_pct: %.6f %% (analytic contention model vs "
                "cycle-level fabric, over %zu kMeasured runs)\n",
                100.0 * model_error(last_), last_.size());
  }

 protected:
  std::size_t num_cells() const override { return cells_.size(); }

  std::string label(std::size_t c) const override {
    const File& f = files_[cells_[c].file];
    return f.workload + "." + f.codec + "/" +
           em2::to_string(cells_[c].spec.arch);
  }

  void begin_rep() override {
    sys_ = std::make_unique<System>(system_config());
  }

  std::uint64_t run_cell(Tracer& tracer, Checks& checks,
                         std::size_t c) override {
    last_.resize(cells_.size());
    peak_.resize(cells_.size());
    const em2::TraceStream stream(files_[cells_[c].file].path.string());
    {
      const Scope s(tracer, "api.run", label(c));
      last_[c] = sys_->run(stream, cells_[c].spec);
    }
    peak_[c] = stream.peak_resident_trace_bytes();
    std::vector<std::string> why;
    if (peak_[c] > kStreamWindow) {
      why.push_back("reader peak " + std::to_string(peak_[c]) +
                    " B exceeds the stream window");
    }
    if (!last_[c].noc) {
      why.push_back("no contention section");
    }
    checks.call(c, label(c), last_[c], why);
    return last_[c].accesses;
  }

  void layer(Tracer& tracer, Checks& checks, std::size_t c) override {
    const Cell& cell = cells_[c];
    const File& file = files_[cell.file];
    decoded_.resize(cells_.size());
    std::optional<em2::TraceStream> stream;
    {
      const Scope s(tracer, "trace.open", label(c));
      stream.emplace(file.path.string());
    }
    stream->set_stream_window(kStreamWindow);
    {
      const Scope s(tracer, "trace.decode." + file.codec, label(c));
      decoded_[c] = 0;
      for (std::size_t t = 0; t < stream->num_threads(); ++t) {
        const auto cursor = stream->make_cursor(t);
        while (cursor->next() != nullptr) {
          ++decoded_[c];
        }
      }
    }
    // Fresh System, same source, no contention: placement + engine +
    // System::run's own work.
    const System sys(system_config());
    std::unique_ptr<em2::Placement> placement;
    {
      const Scope s(tracer, "placement.stream_build", label(c));
      placement = em2::make_placement("first-touch", *stream, kThreads);
    }
    em2::CounterSet counters;
    if (cell.spec.arch == MemArch::kEm2) {
      const Scope s(tracer, "em2.engine", label(c));
      counters = em2::run_em2(*stream, *placement, sys.mesh(),
                              sys.cost_model(), sys.config().em2)
                     .counters;
    } else {
      const Scope s(tracer, "em2ra.engine.distance", label(c));
      em2::StandardPolicy policy = em2::StandardPolicy::make(
          cell.spec.policy, sys.mesh(), sys.cost_model());
      counters = em2::run_em2ra(*stream, *placement, sys.mesh(),
                                sys.cost_model(), sys.config().em2, policy)
                     .em2.counters;
    }
    RunSpec uncorrected = cell.spec;
    uncorrected.contention = em2::ContentionMode::kNone;
    RunReport none;
    {
      const Scope s(tracer, "api.run.none", label(c));
      none = sys.run(*stream, uncorrected);
    }
    checks.require(same_counts(none, counters),
                   "layer pass disagrees with System::run on " + label(c));
    checks.require(decoded_[c] == last_[c].accesses,
                   "cursor drain count differs on " + label(c));
  }

 private:
  struct File {
    std::string workload;
    std::string codec;
    std::filesystem::path path;
    std::uint64_t accesses;
    std::uint64_t bytes;
  };
  struct Cell {
    std::size_t file;
    RunSpec spec;
  };

  /// Sum |predicted - measured| / sum measured over calibration runs.
  static double model_error(std::span<const RunReport> reports) {
    double err = 0.0, measured = 0.0;
    for (const RunReport& r : reports) {
      if (!r.noc) {
        continue;
      }
      const auto m = static_cast<double>(r.noc->measured_total_latency);
      err += std::fabs(static_cast<double>(r.noc->predicted_total_latency) -
                       m);
      measured += m;
    }
    return ratio(err, measured);
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
  std::vector<File> files_;
  std::vector<Cell> cells_;
  std::unique_ptr<System> sys_;
  std::vector<RunReport> last_;
  std::vector<std::uint64_t> peak_;
  std::vector<std::uint64_t> decoded_;
};

// ---- exec-seq / exec-sharded ---------------------------------------------

/// Execution-driven mode: ocean and sharing-mix x {em2, em2-ra
/// distance:4, cc} on the event scheduler over `shards` host shards
/// (skew 0: bit-identical to the sequential engine by contract).
class Exec final : public Scenario {
 public:
  Exec(std::uint64_t seed, std::uint32_t shards)
      : seed_(seed), shards_(shards) {}

  void setup(Tracer& tracer, Checks& checks) override {
    for (const char* name : {"ocean", "sharing-mix"}) {
      workloads_.push_back(generate(tracer, name, seed_));
    }
    sys_ = std::make_unique<System>(system_config());
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      for (const MemArch arch :
           {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
        cells_.push_back({w, RunSpec{.arch = arch,
                                     .mode = RunMode::kExec,
                                     .policy = "distance:4",
                                     .shards = shards_}});
      }
    }
    if (tracer.enabled()) {
      for (const Workload& w : workloads_) {
        placements_.push_back(build_placement(tracer, w));
      }
    }
    const Scope s(tracer, "warmup");
    (void)rep(tracer, checks, false);
  }

  Metrics layer_metrics(const Tracer& t,
                        const std::string& run) const override {
    Metrics m;
    double exec_ms = 0.0;
    for (const MemArch arch :
         {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
      const double ms =
          t.self_ms(std::string("sim.exec.") + em2::to_string(arch), run);
      m[std::string("sim.exec_ms.") + em2::to_string(arch)] = ms;
      exec_ms += ms;
    }
    std::uint64_t cycles = 0, instructions = 0;
    for (const RunReport& r : last_) {
      if (r.exec) {
        cycles += r.exec->cycles;
        instructions += r.exec->instructions;
      }
    }
    const double compile_ms = t.self_ms("workload.compile", run);
    const double seq_ms = t.self_ms("sim.shard_leg.seq", run);
    const double par_ms = t.self_ms("sim.shard_leg.sharded", run);
    m["workload.compile_ms"] = compile_ms;
    m["sim.ns_per_instruction"] =
        ratio(exec_ms * 1e6, static_cast<double>(instructions));
    m["sim.cycles"] = static_cast<double>(cycles);
    m["sim.instructions"] = static_cast<double>(instructions);
    m["sim.shard_ms"] = par_ms;
    m["sim.shard_speedup"] = ratio(seq_ms, par_ms);
    m["api.self_ms"] = t.total_ms("api.run", run) - compile_ms - exec_ms;
    return m;
  }

  void final_checks(Checks& checks) override {
    if (shards_ == 1) {
      return;
    }
    // Sharded (skew 0) reports must equal the sequential engine's.
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      RunSpec seq = cells_[c].spec;
      seq.shards = 1;
      const RunReport r = sys_->run(workloads_[cells_[c].workload], seq);
      if (report_digest(r) != checks.reference(c)) {
        checks.fail_cell(c, label(c),
                         "sharded report differs from the sequential one");
      }
    }
  }

 protected:
  std::size_t num_cells() const override { return cells_.size(); }

  std::string label(std::size_t c) const override {
    return workloads_[cells_[c].workload].name() + "/" +
           em2::to_string(cells_[c].spec.arch);
  }

  std::uint64_t run_cell(Tracer& tracer, Checks& checks,
                         std::size_t c) override {
    last_.resize(cells_.size());
    {
      const Scope s(tracer, "api.run", label(c));
      last_[c] = sys_->run(workloads_[cells_[c].workload], cells_[c].spec);
    }
    checks.call(c, label(c), last_[c]);
    return last_[c].accesses;
  }

  void layer(Tracer& tracer, Checks& checks, std::size_t c) override {
    const Cell& cell = cells_[c];
    const em2::ExecReport r = run_direct(
        tracer, cell.workload, cell.spec.arch, shards_, "workload.compile",
        std::string("sim.exec.") + em2::to_string(cell.spec.arch), label(c));
    checks.require(last_[c].exec && r.cycles == last_[c].exec->cycles &&
                       r.instructions == last_[c].exec->instructions &&
                       same_counts(last_[c], r.counters),
                   "layer pass disagrees with System::run on " + label(c));
  }

  void after_layers(Tracer& tracer, Checks& checks) override {
    // One leg timed and checked both ways, so either exec workload's
    // traced run reports the sharded engine's speed-up over sequential.
    const Scope leg(tracer, "shard_leg", label(0));
    const em2::ExecReport seq =
        run_direct(tracer, 0, MemArch::kEm2, 1, "bench.leg_compile",
                   "sim.shard_leg.seq", label(0));
    const em2::ExecReport par =
        run_direct(tracer, 0, MemArch::kEm2, 2, "bench.leg_compile",
                   "sim.shard_leg.sharded", label(0));
    checks.require(seq.cycles == par.cycles &&
                       seq.instructions == par.instructions &&
                       seq.consistent && par.consistent &&
                       seq.finish_cycle == par.finish_cycle &&
                       seq.counters.get("migrations") ==
                           par.counters.get("migrations") &&
                       seq.counters.get("evictions") ==
                           par.counters.get("evictions"),
                   "sharded leg differs from the sequential leg");
  }

 private:
  struct Cell {
    std::size_t workload;
    RunSpec spec;
  };

  /// ExecSystem driven directly, configured the way System::run does.
  /// `compile_span` names the program compilation's span: the cells'
  /// compiles are part of System::run, the shard legs' are not.
  em2::ExecReport run_direct(Tracer& tracer, std::size_t w, MemArch arch,
                             std::uint32_t shards,
                             const std::string& compile_span,
                             const std::string& exec_span,
                             const std::string& detail) {
    const Workload& wl = workloads_[w];
    std::vector<em2::RProgram> programs;
    {
      const Scope s(tracer, compile_span, detail);
      programs = wl.programs();
    }
    const Scope s(tracer, exec_span, detail);
    const RunSpec defaults;
    em2::ExecParams params;
    params.arch = arch;
    params.em2 = sys_->config().em2;
    params.cc = sys_->config().cc;
    params.cc.private_cache.line_bytes = wl.traces().block_bytes();
    params.ra_policy = defaults.policy;
    params.block_bytes = wl.traces().block_bytes();
    params.watchdog_cycles = defaults.watchdog_cycles;
    params.shards = shards;
    em2::ExecSystem exec(sys_->mesh(), sys_->cost_model(), params,
                         *placements_[w]);
    for (std::size_t t = 0; t < programs.size(); ++t) {
      exec.add_thread(std::move(programs[t]),
                      wl.traces().thread(t).native_core());
    }
    return exec.run(defaults.max_cycles);
  }

  std::uint64_t seed_;
  std::uint32_t shards_;
  std::vector<Workload> workloads_;
  std::unique_ptr<System> sys_;
  std::vector<Cell> cells_;
  std::vector<std::unique_ptr<em2::Placement>> placements_;
  std::vector<RunReport> last_;
};

// ------------------------------------------------------------------ main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "trace-warm", "stream-cold", "exec-seq", "exec-sharded"};
  return names;
}

std::unique_ptr<Scenario> make_scenario(const Options& o,
                                        const std::filesystem::path& dir) {
  if (o.workload == "trace-warm") {
    return std::make_unique<TraceWarm>(o.seed);
  }
  if (o.workload == "stream-cold") {
    return std::make_unique<StreamCold>(o.seed, dir);
  }
  if (o.workload == "exec-seq") {
    return std::make_unique<Exec>(o.seed, 1);
  }
  return std::make_unique<Exec>(o.seed, 2);
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return std::nullopt;
      }
    } else if (key == "--out") {
      o.out = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return std::nullopt;
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s' (known: trace-warm, "
                         "stream-cold, exec-seq, exec-sharded)\n",
                 o.workload.c_str());
    return std::nullopt;
  }
  if (!(o.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return std::nullopt;
  }
  return o;
}

void print_result(const Checks& checks, const Metrics& metrics,
                  const std::map<std::string, std::string>& units) {
  std::string json = "{\"correct\": ";
  json += checks.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + units.at(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Unit of every per-layer metric (the names NOTES.md maps to end-to-end
/// metrics); each traced run prints all of them, 0 where a layer does
/// not run in that workload.
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"workload.generate_ms", "ms"},
      {"workload.compile_ms", "ms"},
      {"placement.build_ms", "ms"},
      {"placement.stream_build_ms", "ms"},
      {"trace.write_ms", "ms"},
      {"trace.decode_ms.plain", "ms"},
      {"trace.decode_ms.em2z", "ms"},
      {"trace.decode_acc_per_s", "1/s"},
      {"trace.file_bytes_per_access", "B/access"},
      {"trace.peak_resident_bytes", "B"},
      {"noc.calibration_ms", "ms"},
      {"noc.calibration_packets", "count"},
      {"noc.calibration_cycles", "count"},
      {"noc.replay_cycles_per_s", "1/s"},
      {"noc.model_err_pct.ocean.em2", "%"},
      {"noc.model_err_pct.ocean.em2-ra", "%"},
      {"noc.model_err_pct.sharing-mix.em2", "%"},
      {"noc.model_err_pct.sharing-mix.em2-ra", "%"},
      {"em2.engine_ms", "ms"},
      {"em2.ns_per_access", "ns"},
      {"em2.migrations", "count"},
      {"em2.evictions", "count"},
      {"em2.evictions_per_migration", "ratio"},
      {"em2ra.engine_ms.distance", "ms"},
      {"em2ra.engine_ms.history", "ms"},
      {"em2ra.ns_per_access", "ns"},
      {"em2ra.migrations", "count"},
      {"em2ra.remote_accesses", "count"},
      {"coherence.engine_ms", "ms"},
      {"coherence.ns_per_access", "ns"},
      {"coherence.messages", "count"},
      {"sim.exec_ms.em2", "ms"},
      {"sim.exec_ms.em2-ra", "ms"},
      {"sim.exec_ms.cc", "ms"},
      {"sim.ns_per_instruction", "ns"},
      {"sim.cycles", "count"},
      {"sim.instructions", "count"},
      {"sim.shard_ms", "ms"},
      {"sim.shard_speedup", "x"},
      {"api.self_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.layer_coverage_pct", "%"},
  };
  return units;
}

int run(const Options& o) {
  const std::filesystem::path out_dir = o.out;
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path scratch =
      out_dir / ("tmp-" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  struct RemoveScratch {
    std::filesystem::path dir;
    ~RemoveScratch() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_scratch{scratch};

  Tracer tracer(o.trace);
  Checks checks;
  CpuRotation rotation(o.workload == "exec-sharded" ? 2 : 1);

  // Set-up, several times; setup_s is the median.  Each set-up starts
  // from nothing (the previous one is destroyed and its heap returned).
  std::unique_ptr<Scenario> scenario;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    scenario.reset();
    malloc_trim(0);
    tracer.set_run("setup-" + std::to_string(k));
    rotation.step();
    const auto start = Clock::now();
    {
      const Scope s(tracer, "setup");
      scenario = make_scenario(o, scratch);
      scenario->setup(tracer, checks);
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }

  // Timed phase.  Memory high-water mark covers this phase only.
  const bool rss_reset = reset_peak_rss();
  if (!rss_reset) {
    std::fprintf(stderr, "warning: cannot reset VmHWM; peak_rss_mb "
                         "includes set-up\n");
  }
  std::vector<double> rep_ms, traced_ms;
  std::vector<Metrics> layer_runs;
  std::uint64_t rep_accesses = 0;
  const auto phase = Clock::now();
  const int min_iterations = o.trace ? kMinTracedIterations : kMinReps;
  int iteration = 0;
  while (ms_since(phase) < o.seconds * 1e3 || iteration < min_iterations) {
    const std::string run = "iter-" + std::to_string(iteration);
    tracer.set_run(run);
    rotation.step();
    {
      // Untraced rep: spans off even in the traced run.
      Tracer off(false);
      const auto start = Clock::now();
      const std::uint64_t acc = scenario->rep(off, checks, false);
      rep_ms.push_back(ms_since(start));
      if (rep_accesses != 0 && acc != rep_accesses) {
        checks.require(false, "rep access count changed between reps");
      }
      rep_accesses = acc;
    }
    if (o.trace) {
      {
        const Scope s(tracer, "rep");
        (void)scenario->rep(tracer, checks, true);
      }
      traced_ms.push_back(tracer.total_ms("api.run", run));
      Metrics m = scenario->layer_metrics(tracer, run);
      m["bench.layer_coverage_pct"] =
          100.0 * (1.0 - ratio(m["api.self_ms"], traced_ms.back()));
      layer_runs.push_back(std::move(m));
    }
    ++iteration;
  }
  const double measured_s = ms_since(phase) / 1e3;
  const double peak_mib = peak_rss_mib();

  scenario->final_checks(checks);

  const double med_rep = median(rep_ms);
  const double acc_per_s =
      ratio(static_cast<double>(rep_accesses) * 1e3, med_rep);
  const double failed_pct =
      100.0 * ratio(static_cast<double>(checks.failed()),
                    static_cast<double>(checks.attempted()));
  std::printf("workload %s, seed %" PRIu64 ", %d threads, scale %d: %" PRIu64
              " accesses per rep\n",
              o.workload.c_str(), o.seed, kThreads, kScale, rep_accesses);
  std::printf("rep ms:");
  for (const double ms : rep_ms) {
    std::printf(" %.1f", ms);
  }
  std::printf("\n");
  std::printf("reps: %zu in %.3f s; rep ms median %.3f, q1 %.3f, q3 %.3f\n",
              rep_ms.size(), measured_s, med_rep, quantile(rep_ms, 0.25),
              quantile(rep_ms, 0.75));
  std::printf("acc_per_s: %.3f 1/s (accesses per rep / median rep; "
              "q1-q3 %.3f - %.3f)\n",
              acc_per_s,
              ratio(static_cast<double>(rep_accesses) * 1e3,
                    quantile(rep_ms, 0.75)),
              ratio(static_cast<double>(rep_accesses) * 1e3,
                    quantile(rep_ms, 0.25)));
  std::printf("setup_s: %.6f s (median of %d set-ups: %.3f %.3f %.3f)\n",
              median(setup_s), kSetups, setup_s[0], setup_s[1], setup_s[2]);
  std::printf("peak_rss_mb: %.3f MiB (timed phase%s)\n", peak_mib,
              rss_reset ? "" : ", NOT reset after set-up");
  std::printf("failed_pct: %.6f %% (%" PRIu64 " of %" PRIu64
              " System::run calls)\n",
              failed_pct, checks.failed(), checks.attempted());
  scenario->print_extras();
  std::printf("digest: %s %016" PRIx64 "\n", o.workload.c_str(),
              checks.workload_digest());

  Metrics metrics;
  std::map<std::string, std::string> units;
  if (!o.trace) {
    metrics = {{"acc_per_s", acc_per_s},
               {"setup_s", median(setup_s)},
               {"peak_rss_mb", peak_mib}};
    units = {{"acc_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};
  } else {
    units = layer_units();
    for (const auto& [name, unit] : units) {
      std::vector<double> values;
      for (const Metrics& m : layer_runs) {
        const auto it = m.find(name);
        values.push_back(it != m.end() ? it->second : 0.0);
      }
      metrics[name] = median(values);
    }
    // Set-up layers: median over the set-ups.
    for (const auto& [metric, span] :
         {std::pair<const char*, const char*>{"workload.generate_ms",
                                              "workload.generate"},
          {"placement.build_ms", "placement.build"},
          {"trace.write_ms", "trace.write"}}) {
      std::vector<double> values;
      for (int k = 0; k < kSetups; ++k) {
        values.push_back(
            tracer.self_ms(span, "setup-" + std::to_string(k)));
      }
      metrics[metric] = median(values);
    }
    // Traced throughput counts the System::run spans of the traced reps
    // (their layer calls are extra work, not tracing cost).
    metrics["bench.trace_overhead_pct"] =
        100.0 * (1.0 - ratio(med_rep, median(traced_ms)));
    const std::string path = (out_dir / ("spans-" + o.workload + "-seed" +
                                         std::to_string(o.seed) + ".json"))
                                 .string();
    if (!tracer.write_json(path)) {
      checks.require(false, "cannot write " + path);
    }
    std::printf("spans: %s\n", path.c_str());
    for (const auto& [name, value] : metrics) {
      std::printf("  %-40s %.6f %s\n", name.c_str(), value,
                  units.at(name).c_str());
    }
  }
  print_result(checks, metrics, units);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse(argc, argv);
  if (!options) {
    return 2;
  }
  try {
    return run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
