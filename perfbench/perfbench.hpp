// Shared pieces of the repository benchmark: run arguments, the metric
// sink every workload reports into, exact percentiles, host-clock spans and
// the timed forwarding wrappers around the md/backends.hpp interfaces.
//
// Untraced runs call the backends directly; traced runs hand the drivers the
// Timed* wrappers below, which forward every query (half list, layout, CPE
// use, partition) unchanged so the drivers and the overlap planner see the
// same backend, and record one span per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "md/backends.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  unsigned water_seed = 1;        ///< water-box seed of the MD workloads
  std::uint64_t fleet_seed = 1;   ///< job-generator seed of svc-fleet
  double seconds = 10.0;          ///< host seconds to keep measuring
  bool trace = false;             ///< traced run: per-layer metrics
  std::string scratch;            ///< directory for spans, journal, checkpoints
};

/// Metrics of one run plus the correctness-gate tally.
class Result {
 public:
  /// Record a metric; a non-finite value fails the run.
  void set(const std::string& name, double value, const std::string& unit);
  /// Record a gate outcome; a failed gate counts as one failed operation.
  void gate(bool ok, const std::string& what);
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return gate_failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  void print(std::ostream& os) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> gate_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host seconds on the steady clock.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One reading of the host clocks: wall seconds, this process's CPU seconds
/// (user + system, all threads) and the machine's steal seconds, the time
/// the hypervisor kept runnable vCPUs off a physical core, summed over vCPUs
/// (0 where the kernel does not report it).
struct HostClock {
  double wall = 0.0, cpu = 0.0, steal = 0.0;
  [[nodiscard]] static HostClock now();
};

/// Wall seconds from `a` to `b` without the stolen share:
/// wall * cpu / (cpu + steal), which is wall minus the steal divided by the
/// mean number of runnable vCPUs. It assumes this process is the only busy
/// one on the machine, so that all of the steal held up its threads.
[[nodiscard]] double unstolen_wall(const HostClock& a, const HostClock& b);

[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 1) of raw samples. Throws when fewer
/// than ten samples lie beyond it: such a tail is not resolved.
[[nodiscard]] double exact_percentile(std::vector<double> v, double p);

/// Prints "<label> p<P> = <value> <unit> (n=<count>, beyond=<k>)".
double print_percentile(const std::string& label, const std::vector<double>& v,
                        double p, double scale, const std::string& unit);

/// Same length and bytes (trajectories, energy series).
template <typename T>
bool same_bytes(const T& a, const T& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Host-clock spans, kept in memory and written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t id = 0;  ///< step index, or job seq on the fleet
  int parent = -1;      ///< index of the enclosing span, -1 for roots
  double t0 = 0.0, t1 = 0.0;
};

class Tracer {
 public:
  /// Open a span under the innermost open one. A negative id inherits the
  /// parent's id.
  int open(std::string name, std::int64_t id = -1);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// One JSON object per line: name, id, parent, start and end in seconds
  /// relative to the first span.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tr, const char* name, std::int64_t id = -1)
      : tr_(tr), index_(tr ? tr->open(name, id) : -1) {}
  ~SpanScope() {
    if (tr_) tr_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tr_;
  int index_;
};

/// Total self time (duration minus children) of the `parent_name` spans.
/// Throws when a child leaves its parent or overlaps a sibling, or when a
/// span other than a `parent_name` one has no parent.
double self_time(const Tracer& tr, const std::string& parent_name);

// ---------------------------------------------------------------------------
// Timed forwarding wrappers.
// ---------------------------------------------------------------------------

class TimedShortRange final : public swgmx::md::ShortRangeBackend {
 public:
  TimedShortRange(swgmx::md::ShortRangeBackend& inner, Tracer& tr)
      : inner_(&inner), tr_(&tr) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_half_list() const override {
    return inner_->wants_half_list();
  }
  [[nodiscard]] swgmx::md::PackageLayout wants_layout() const override {
    return inner_->wants_layout();
  }
  double compute(const swgmx::md::ClusterSystem& cs, const swgmx::md::Box& box,
                 const swgmx::md::ClusterPairList& list,
                 const swgmx::md::NbParams& p, std::span<swgmx::Vec3f> f_slots,
                 swgmx::md::NbEnergies& e) override {
    SpanScope s(tr_, "core.sr.compute");
    const double secs = inner_->compute(cs, box, list, p, f_slots, e);
    ++calls;
    sim_seconds += secs;
    return secs;
  }
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }
  void set_cpe_partition(const swgmx::sw::CpePartition& part) override {
    inner_->set_cpe_partition(part);
  }

  std::uint64_t calls = 0;
  double sim_seconds = 0.0;

 private:
  swgmx::md::ShortRangeBackend* inner_;
  Tracer* tr_;
};

class TimedPairList final : public swgmx::md::PairListBackend {
 public:
  TimedPairList(swgmx::md::PairListBackend& inner, Tracer& tr)
      : inner_(&inner), tr_(&tr) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  double build(const swgmx::md::ClusterSystem& cs, const swgmx::md::Box& box,
               float rlist, bool half, swgmx::md::ClusterPairList& out,
               int nranks = 1) override {
    SpanScope s(tr_, "core.pairlist.build");
    const double secs = inner_->build(cs, box, rlist, half, out, nranks);
    ++builds;
    sim_seconds += secs;
    pairs += static_cast<double>(out.cluster_pairs());
    clusters += static_cast<double>(cs.nclusters());
    return secs;
  }
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }

  std::uint64_t builds = 0;
  double sim_seconds = 0.0;
  double pairs = 0.0;     ///< cluster pairs summed over builds
  double clusters = 0.0;  ///< i-clusters summed over builds

 private:
  swgmx::md::PairListBackend* inner_;
  Tracer* tr_;
};

class TimedLongRange final : public swgmx::md::LongRangeBackend {
 public:
  TimedLongRange(swgmx::md::LongRangeBackend& inner, Tracer& tr)
      : inner_(&inner), tr_(&tr) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  double compute(swgmx::md::System& sys, double& e_recip) override {
    SpanScope s(tr_, "pme.compute");
    const double secs = inner_->compute(sys, e_recip);
    ++calls;
    sim_seconds += secs;
    return secs;
  }
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }
  void set_cpe_partition(const swgmx::sw::CpePartition& part) override {
    inner_->set_cpe_partition(part);
  }

  std::uint64_t calls = 0;
  double sim_seconds = 0.0;

 private:
  swgmx::md::LongRangeBackend* inner_;
  Tracer* tr_;
};

/// Simulated-clock values read from the public accessors (phase timers,
/// critical-path report, metrics registry, kernel breakdowns); two runs of
/// the same seed must produce identical snapshots, wrapped or not.
using SimSnapshot = std::map<std::string, double>;
/// Value of `key`, 0 when absent.
[[nodiscard]] double get(const SimSnapshot& s, const std::string& key);
/// Adds every counter/gauge of `reg` as "reg/<name>" (histograms as
/// "#count"/"#sum").
void add_registry(const swgmx::obs::MetricsRegistry& reg, SimSnapshot& s);
/// The simulated-clock per-layer metrics (md.phase.*, net.*, sw.*, pme
/// phases, cache miss rates) of a snapshot covering `steps` steps.
void report_sim_layers(const SimSnapshot& s, double steps, Result& res);

// Workload entry points.
void run_md_workload(const Args& args, Result& res);
void run_svc_fleet(const Args& args, Result& res);

}  // namespace perfbench
