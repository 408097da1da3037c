// The two MD workloads of the repository benchmark.
//
//   rf-1cg   one core group, ~6000 particles of reaction-field water, the
//            Mark kernel with CpePairList on md::Simulation.
//   pme-16r  net::ParallelSim over 16 simulated ranks, ~12000 particles of
//            PME water, CPE-offloaded PME, overlap engine at its default,
//            MPI transport.
//
// One run: `setups` timed engine constructions (the last one is kept), then
// an untraced run of kSimSteps steps whose simulated-clock numbers are
// snapshotted, continued in whole pair-list cycles until --seconds of host
// time have been measured. A traced run (--trace 1) replays the first
// kSimSteps steps through the Timed* wrappers and must reproduce the
// untraced state and simulated numbers exactly. Last, the first pair list
// is checked against the exhaustive builder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/pairlist_cpe.hpp"
#include "core/strategies.hpp"
#include "core/sw_short_range.hpp"
#include "md/clusters.hpp"
#include "md/pairlist.hpp"
#include "md/simulation.hpp"
#include "md/water.hpp"
#include "net/parallel_sim.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "pme/pme.hpp"

namespace perfbench {
namespace {

using namespace swgmx;

/// Steps whose simulated-clock numbers every run reports: 200 per-step
/// samples leave ten beyond p95, and the 20 rebuild steps among them ten
/// beyond the rebuild p50.
constexpr int kSimSteps = 210;
constexpr int kNstlist = 10;
/// Relative total-energy drift allowed over kSimSteps steps.
constexpr double kDriftTol = 0.1;

struct MdSpec {
  const char* name;
  std::size_t particles;
  bool pme;
  int ranks;
  int setups;  ///< timed constructions per run (median reported)
};

constexpr MdSpec kRf1cg{"rf-1cg", 6000, false, 1, 15};
constexpr MdSpec kPme16r{"pme-16r", 12000, true, 16, 5};

md::System make_system(const MdSpec& spec, unsigned seed) {
  md::WaterBoxOptions o;
  o.nmol = spec.particles / 3;
  o.coulomb =
      spec.pme ? md::CoulombMode::EwaldShort : md::CoulombMode::ReactionField;
  o.seed = seed;
  return md::make_water_box(o);
}

/// Core group, backends and driver of one MD run. Members are declared in
/// construction order so the driver is destroyed before what it borrows.
struct Engine {
  std::unique_ptr<sw::CoreGroup> cg;
  std::unique_ptr<md::ShortRangeBackend> sr;
  std::unique_ptr<core::CpePairList> pl;
  std::unique_ptr<pme::PmeSolver> pme;
  std::unique_ptr<TimedShortRange> tsr;
  std::unique_ptr<TimedPairList> tpl;
  std::unique_ptr<TimedLongRange> tlr;
  std::unique_ptr<md::Simulation> sim;
  std::unique_ptr<net::ParallelSim> psim;

  void step() {
    if (sim) {
      sim->step();
    } else {
      psim->step();
    }
  }
  [[nodiscard]] const md::System& system() const {
    return sim ? sim->system() : psim->system();
  }
  [[nodiscard]] const sw::PhaseTimers& timers() const {
    return sim ? sim->timers() : psim->timers();
  }
  [[nodiscard]] const std::vector<md::EnergySample>& series() const {
    return sim ? sim->energy_series() : psim->energy_series();
  }
  [[nodiscard]] std::int64_t current_step() const {
    return sim ? sim->current_step() : psim->current_step();
  }
  [[nodiscard]] std::uint64_t rollbacks() const {
    return sim ? sim->rollback_count() : psim->rollback_count();
  }
};

/// Everything from the water box to a driver ready for its first step.
/// With a tracer the driver gets the Timed* wrappers.
std::unique_ptr<Engine> build_engine(const MdSpec& spec, unsigned seed,
                                     Tracer* tr) {
  auto e = std::make_unique<Engine>();
  md::System sys = make_system(spec, seed);
  e->cg = std::make_unique<sw::CoreGroup>();
  e->sr = core::make_short_range(core::Strategy::Mark, *e->cg);
  e->pl = std::make_unique<core::CpePairList>(*e->cg);
  if (spec.pme) {
    e->pme = std::make_unique<pme::PmeSolver>(
        pme::suggest_grid(sys.box, sys.ff->ewald_beta));
    e->pme->set_accelerated(true);
  }
  md::ShortRangeBackend* sr = e->sr.get();
  md::PairListBackend* pl = e->pl.get();
  md::LongRangeBackend* lr = e->pme.get();
  if (tr != nullptr) {
    e->tsr = std::make_unique<TimedShortRange>(*sr, *tr);
    e->tpl = std::make_unique<TimedPairList>(*pl, *tr);
    sr = e->tsr.get();
    pl = e->tpl.get();
    if (lr != nullptr) {
      e->tlr = std::make_unique<TimedLongRange>(*lr, *tr);
      lr = e->tlr.get();
    }
  }
  md::SimOptions so;
  so.nstlist = kNstlist;
  so.nstenergy = kNstlist;
  if (spec.ranks == 1) {
    e->sim = std::make_unique<md::Simulation>(std::move(sys), so, *sr, *pl, lr);
  } else {
    net::ParallelOptions po;
    po.nranks = spec.ranks;
    po.sim = so;
    e->psim = std::make_unique<net::ParallelSim>(std::move(sys), po, *sr, *pl,
                                                 lr);
  }
  return e;
}

void reset_globals() {
  obs::MetricsRegistry::global().clear();
  obs::CritPathCollector::global().reset();
}

SimSnapshot snapshot_sim(const Engine& e) {
  SimSnapshot s;
  for (const auto& [phase, secs] : e.timers().phases()) s["phase/" + phase] = secs;
  s["timers/total"] = e.timers().total();
  const obs::CritPathReport cp = obs::CritPathCollector::global().report();
  s["crit/span"] = cp.span_seconds;
  s["crit/steps"] = static_cast<double>(cp.steps);
  s["crit/graph_steps"] = static_cast<double>(cp.graph_steps);
  for (int r = 0; r < obs::kCritResCount; ++r) {
    s[std::string("crit/busy/") + obs::crit_resource_name(r)] = cp.busy[r];
    s[std::string("crit/idle/") + obs::crit_resource_name(r)] = cp.idle[r];
  }
  s["crit/mpe"] = cp.mpe_seconds;
  s["crit/cpe_compute"] = cp.cpe_compute_seconds;
  s["crit/ldm_dma"] = cp.cpe_ldm_dma_seconds;
  s["crit/network"] = cp.network_seconds;
  s["crit/barrier"] = cp.barrier_seconds;
  s["crit/network_share"] = cp.network_share;
  add_registry(obs::MetricsRegistry::global(), s);
  const auto* sw_sr = dynamic_cast<const core::SwShortRange*>(e.sr.get());
  if (sw_sr != nullptr) {
    const core::ShortRangeBreakdown& l = sw_sr->last();
    s["sr/total_s"] = l.total();
    s["sr/read_miss_rate"] = l.force.total.read_miss_rate();
    s["sr/write_miss_rate"] = l.force.total.write_miss_rate();
  }
  if (e.pme) {
    const pme::PmeBreakdown& b = e.pme->last_breakdown();
    s["pme/prep_s"] = b.prep_s;
    s["pme/spread_s"] = b.spread_s;
    s["pme/reduce_s"] = b.reduce_s;
    s["pme/fft_s"] = b.fft_s;
    s["pme/convolve_s"] = b.convolve_s;
    s["pme/gather_s"] = b.gather_s;
    s["pme/dma_bytes"] = static_cast<double>(b.dma_bytes);
    s["pme/gather_read_miss_rate"] = b.gather_read_miss_rate;
    s["pme/spread_write_miss_rate"] = b.spread_write_miss_rate;
  }
  if (e.psim) s["net/max_pair_share"] = e.psim->max_pair_share();
  return s;
}

struct StepSample {
  double host_s = 0.0;
  double sim_s = 0.0;
  bool rebuild = false;
};

/// State captured after kSimSteps steps.
struct StepWindow {
  SimSnapshot sim;
  AlignedVector<Vec3f> x, v;
  std::vector<md::EnergySample> series;
  double host_s = 0.0;  ///< host seconds of the kSimSteps steps
};

bool finite(const AlignedVector<Vec3f>& a) {
  return std::all_of(a.begin(), a.end(), [](const Vec3f& p) {
    return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
  });
}

/// Host-clock reading after every step that closes a pair-list cycle.
void mark_cycle(const Engine& e, std::vector<HostClock>* marks) {
  if (marks != nullptr && e.current_step() % kNstlist == 0)
    marks->push_back(HostClock::now());
}

/// Run steps [current, kSimSteps) recording per-step host and simulated
/// seconds, then snapshot. With a tracer each step is an md.step span; with
/// `marks` the host clocks are read at every cycle boundary.
StepWindow run_sim_steps(Engine& e, Tracer* tr, std::vector<StepSample>& out,
                         std::vector<HostClock>* marks) {
  StepWindow w;
  while (e.current_step() < kSimSteps) {
    const std::int64_t i = e.current_step();
    const double sim0 = e.timers().total();
    const double t0 = host_now();
    {
      SpanScope span(tr, "md.step", i);
      e.step();
    }
    const double dt = host_now() - t0;
    w.host_s += dt;
    out.push_back({dt, e.timers().total() - sim0, i > 0 && i % kNstlist == 0});
    mark_cycle(e, marks);
  }
  w.sim = snapshot_sim(e);
  w.x.assign(e.system().x.begin(), e.system().x.end());
  w.v.assign(e.system().v.begin(), e.system().v.end());
  w.series = e.series();
  return w;
}

/// The first list of the production path must contain every pair of the
/// exhaustive builder. Returns the extra (buffer) cluster pairs.
double check_pairlist_containment(const MdSpec& spec, unsigned seed,
                                  Result& res) {
  const md::System sys = make_system(spec, seed);
  sw::CoreGroup cg;
  const auto sr = core::make_short_range(core::Strategy::Mark, cg);
  core::CpePairList pl(cg);
  const md::ClusterSystem cs(sys, sr->wants_layout());
  const auto rlist = static_cast<float>(sys.ff->rlist());
  md::ClusterPairList list, brute;
  pl.build(cs, sys.box, rlist, sr->wants_half_list(), list);
  md::build_pairlist_brute(cs, sys.box, rlist, sr->wants_half_list(), brute);
  auto pairs = [](const md::ClusterPairList& l) {
    std::vector<std::uint64_t> p;
    p.reserve(l.cj.size());
    for (std::size_t ci = 0; ci + 1 < l.row_ptr.size(); ++ci) {
      for (const std::int32_t cj : l.row(static_cast<int>(ci))) {
        const auto a = static_cast<std::uint64_t>(ci);
        const auto b = static_cast<std::uint64_t>(cj);
        p.push_back(std::min(a, b) << 32 | std::max(a, b));
      }
    }
    std::sort(p.begin(), p.end());
    return p;
  };
  const auto got = pairs(list);
  const auto want = pairs(brute);
  const bool contains =
      std::includes(got.begin(), got.end(), want.begin(), want.end());
  const double extra =
      static_cast<double>(got.size()) - static_cast<double>(want.size());
  res.gate(contains, "first CpePairList list contains all " +
                         std::to_string(want.size()) +
                         " brute-force cluster pairs (" +
                         std::to_string(static_cast<long long>(extra)) +
                         " extra)");
  return extra;
}

void gate_state(const MdSpec& spec, const StepWindow& w, Result& res,
                const char* which) {
  const std::string tag = std::string(spec.name) + " " + which;
  res.gate(finite(w.x) && finite(w.v), tag + ": final x and v finite");
  const double e0 = w.series.empty() ? 0.0 : w.series.front().e_total();
  const double e1 = w.series.empty() ? 0.0 : w.series.back().e_total();
  const double drift = e0 == 0.0 ? INFINITY : std::abs(e1 - e0) / std::abs(e0);
  char buf[128];
  std::snprintf(buf, sizeof buf, ": relative energy drift %.3g < %.1g over %zu samples",
                drift, kDriftTol, w.series.size());
  res.gate(w.series.size() >= 2 && drift < kDriftTol, tag + buf);
  double phase_sum = 0.0;
  for (const auto& [k, v] : w.sim)
    if (k.rfind("phase/", 0) == 0) phase_sum += v;
  const double total = get(w.sim, "timers/total");
  res.gate(std::abs(phase_sum - total) <= 1e-12 * total &&
               std::abs(get(w.sim, "crit/span") - total) <= 1e-9 * total,
           tag + ": simulated phases and critical-path span sum to timers().total()");
}

}  // namespace

double get(const SimSnapshot& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

void add_registry(const obs::MetricsRegistry& reg, SimSnapshot& s) {
  for (const obs::MetricEntry& m : reg.entries()) {
    if (m.kind == obs::MetricKind::kHist) {
      s["reg/" + m.name + "#count"] = static_cast<double>(m.hist.count());
      s["reg/" + m.name + "#sum"] = m.hist.sum();
    } else {
      s["reg/" + m.name] = m.value;
    }
  }
}

/// Simulated-clock per-layer metrics, per step where the name says so.
void report_sim_layers(const SimSnapshot& s, double steps, Result& res) {
  const double ms = 1e3 / steps;
  res.set("core.sr.read_miss_rate", get(s, "sr/read_miss_rate"), "ratio");
  res.set("core.sr.write_miss_rate", get(s, "sr/write_miss_rate"), "ratio");
  for (const char* p : {"prep", "spread", "reduce", "fft", "convolve", "gather"})
    res.set(std::string("pme.") + p + "_ms",
            get(s, std::string("pme/") + p + "_s") * 1e3, "ms");
  res.set("pme.dma_mb_per_call", get(s, "pme/dma_bytes") / 1e6, "MB");
  res.set("pme.gather_read_miss_rate", get(s, "pme/gather_read_miss_rate"),
          "ratio");
  res.set("pme.spread_write_miss_rate", get(s, "pme/spread_write_miss_rate"),
          "ratio");
  const std::pair<const char*, const char*> phases[] = {
      {"md.phase.force_ms", md::phase::kForce},
      {"md.phase.neighbor_search_ms", md::phase::kNeighborSearch},
      {"md.phase.update_ms", md::phase::kUpdate},
      {"md.phase.constraints_ms", md::phase::kConstraints},
      {"md.phase.buffer_ops_ms", md::phase::kBufferOps},
      {"md.phase.rest_ms", md::phase::kRest},
      {"net.phase.domain_decomp_ms", md::phase::kDomainDecomp},
      {"net.phase.wait_comm_f_ms", md::phase::kWaitCommF},
      {"net.phase.comm_energies_ms", md::phase::kCommEnergies}};
  for (const auto& [metric, phase] : phases)
    res.set(metric, get(s, std::string("phase/") + phase) * ms, "ms");
  res.set("md.overlap.hidden_ms", get(s, "reg/overlap/hidden_seconds") * ms, "ms");
  res.set("md.overlap.partition_idle_ms",
          get(s, "reg/overlap/partition_idle_seconds") * ms, "ms");
  res.set("net.comm_share", get(s, "crit/network_share"), "ratio");
  res.set("net.max_pair_share", get(s, "net/max_pair_share"), "ratio");
  res.set("sw.cpe_compute_ms", get(s, "crit/cpe_compute") * ms, "ms");
  res.set("sw.ldm_dma_ms", get(s, "crit/ldm_dma") * ms, "ms");
  res.set("sw.mpe_ms", get(s, "crit/mpe") * ms, "ms");
  res.set("sw.barrier_ms", get(s, "crit/barrier") * ms, "ms");
  const double span = get(s, "crit/span");
  res.set("sw.cpe_idle_share",
          span > 0.0 ? get(s, "crit/idle/cpe") / span : 0.0, "ratio");
  double launches = 0.0;
  for (const auto& [k, v] : s)
    if (k.rfind("reg/kernel/", 0) == 0 && k.size() > 9 &&
        k.compare(k.size() - 9, 9, "/launches") == 0)
      launches += v;
  res.set("sw.launches_per_step", launches / steps, "count");
  for (const char* label : {"sr/force", "pme/spread", "pme/fft", "pme/gather"}) {
    std::string metric = std::string("sw.kernel.") + label;
    std::replace(metric.begin(), metric.end(), '/', '-');
    const std::string key = std::string("reg/kernel/") + label;
    const double comp = get(s, key + "/compute_cycles");
    const double mem = get(s, key + "/mem_cycles");
    res.set(metric + ".dma_mb", get(s, key + "/dma_bytes") / 1e6 / steps,
            "MB/step");
    res.set(metric + ".mem_fraction",
            comp + mem > 0.0 ? mem / (comp + mem) : 0.0, "ratio");
  }
}

void run_md_workload(const Args& args, Result& res) {
  const MdSpec& spec = args.workload == kRf1cg.name ? kRf1cg : kPme16r;
  const unsigned seed = args.water_seed;
  std::cout << spec.name << ": " << spec.particles << " particles, "
            << (spec.pme ? "PME" : "reaction-field") << ", " << spec.ranks
            << " rank(s), water seed " << seed << ", " << kSimSteps
            << " simulated-clock steps\n";

  Tracer tr;  // outlives the engine, whose wrappers point at it
  // Set-up: from nothing to a driver whose first step can run, timed on the
  // wall clock (median reported) and, for the per-layer numbers, in CPU time.
  std::vector<double> setup_s, setup_cpu_s;
  std::unique_ptr<Engine> eng;
  for (int k = 0; k < spec.setups; ++k) {
    eng.reset();
    reset_globals();
    const HostClock c0 = HostClock::now();
    eng = build_engine(spec, seed, nullptr);
    const HostClock c1 = HostClock::now();
    setup_s.push_back(c1.wall - c0.wall);
    setup_cpu_s.push_back(c1.cpu - c0.cpu);
  }

  std::vector<StepSample> steps;
  std::vector<HostClock> marks{HostClock::now()};
  const StepWindow plain = run_sim_steps(*eng, nullptr, steps, &marks);
  gate_state(spec, plain, res, "untraced");
  const double window_cpu_s = marks.back().cpu - marks.front().cpu;

  const double particles = static_cast<double>(eng->system().size());
  std::vector<double> sim_step_s;
  for (const StepSample& s : steps) sim_step_s.push_back(s.sim_s);

  if (!args.trace) {
    // Keep stepping in whole pair-list cycles until --seconds of host time
    // are measured; each cycle holds one rebuild step.
    double measured = plain.host_s;
    while (measured < args.seconds || eng->current_step() % kNstlist != 0) {
      const std::int64_t i = eng->current_step();
      const double t0 = host_now();
      eng->step();
      const double dt = host_now() - t0;
      measured += dt;
      steps.push_back({dt, 0.0, i % kNstlist == 0});
      mark_cycle(*eng, &marks);
    }
    const double cpu_s = marks.back().cpu - marks.front().cpu;
    // Peak memory of the workload itself, before the pair-list probe below
    // allocates its exhaustive reference list.
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.gate(finite(eng->system().x) && finite(eng->system().v),
             std::string(spec.name) + " x and v finite after " +
                 std::to_string(eng->current_step()) + " steps");
    check_pairlist_containment(spec, seed, res);
    // Cycle k covers steps [k*nstlist, (k+1)*nstlist), one rebuild each;
    // cycle 0 (no rebuild, cold caches) is warm-up. Each is timed on the
    // wall clock without the stolen share, and the median is reported.
    std::vector<double> cycle_s, cycle_raw_s;
    for (std::size_t k = 1; k + 1 < marks.size(); ++k) {
      cycle_s.push_back(unstolen_wall(marks[k], marks[k + 1]));
      cycle_raw_s.push_back(marks[k + 1].wall - marks[k].wall);
    }
    const double throughput = particles * kNstlist / median(cycle_s);
    const double per_step_sim = plain.sim.at("timers/total") / kSimSteps;
    const double ns_per_day = 86400.0 / per_step_sim * 0.002 / 1e3;
    std::printf("  setup_s               = %.6g s wall, %.6g CPU s (median of "
                "%zu)\n",
                median(setup_s), median(setup_cpu_s), setup_s.size());
    std::printf("  host_atom_steps_per_s = %.6g atom-steps/s (median of %zu "
                "%d-step cycles: %.6g s without steal, %.6g s wall; %.3g s "
                "stolen over the run)\n",
                throughput, cycle_s.size(), kNstlist, median(cycle_s),
                median(cycle_raw_s), marks.back().steal - marks.front().steal);
    std::printf("  host.cpu_atom_steps_per_s = %.6g (%zu steps in %.4g CPU s)\n",
                particles * static_cast<double>(steps.size()) / cpu_s,
                steps.size(), cpu_s);
    std::printf("  sim_ns_per_day        = %.6g ns/day (%.6g ms/step simulated)\n",
                ns_per_day, per_step_sim * 1e3);
    const double p50 =
        print_percentile("sim_latency (per step)", sim_step_s, 0.50, 1e3, "ms");
    const double p95 =
        print_percentile("sim_latency (per step)", sim_step_s, 0.95, 1e3, "ms");
    res.set("setup_s", median(setup_s), "s");
    res.set("host_atom_steps_per_s", throughput, "atom-steps/s");
    res.set("sim_ns_per_day", ns_per_day, "ns/day");
    res.set("sim_latency_p50_s", p50, "s");
    res.set("sim_latency_p95_s", p95, "s");
    res.attempt(static_cast<std::uint64_t>(eng->current_step()));
    res.fail(eng->rollbacks());
    return;
  }

  // Traced replay of the same kSimSteps steps through the wrappers.
  const std::uint64_t rollbacks_plain = eng->rollbacks();
  eng.reset();
  reset_globals();
  eng = build_engine(spec, seed, &tr);
  // Count only in-step calls: drop the constructor's first pair-list build.
  tr = Tracer();
  eng->tpl->builds = 0;
  eng->tpl->sim_seconds = eng->tpl->pairs = eng->tpl->clusters = 0.0;
  std::vector<StepSample> traced_steps;
  const StepWindow traced = run_sim_steps(*eng, &tr, traced_steps, nullptr);
  gate_state(spec, traced, res, "traced");
  res.gate(same_bytes(plain.x, traced.x) && same_bytes(plain.v, traced.v),
           std::string(spec.name) + ": traced and untraced x, v byte-identical");
  res.gate(same_bytes(plain.series, traced.series),
           std::string(spec.name) +
               ": traced and untraced energy series byte-identical");
  res.gate(plain.sim == traced.sim,
           std::string(spec.name) + ": traced and untraced simulated metrics "
                                    "identical (" +
               std::to_string(plain.sim.size()) + " values)");
  // Layer sums: each md.step span holds its backend spans without overlap
  // (its self time is the rest), there is one span per wrapped call, and
  // the md.step spans add up to the step times measured around them.
  const TimedShortRange& tsr = *eng->tsr;
  const TimedPairList& tpl = *eng->tpl;
  const std::size_t pme_calls_n = eng->tlr ? eng->tlr->calls : 0;
  double self_s = 0.0;
  try {
    self_s = self_time(tr, "md.step");
    res.gate(true, std::string(spec.name) +
                       ": backend spans nest inside md.step spans");
  } catch (const std::exception& ex) {
    res.gate(false, ex.what());
  }
  res.gate(tr.count("md.step") == static_cast<std::size_t>(kSimSteps) &&
               tr.count("core.sr.compute") == tsr.calls &&
               tr.count("core.pairlist.build") == tpl.builds &&
               tr.count("pme.compute") == pme_calls_n,
           std::string(spec.name) + ": one span per step and per call (" +
               std::to_string(tsr.calls) + " short-range, " +
               std::to_string(tpl.builds) + " pair-list, " +
               std::to_string(pme_calls_n) + " PME)");
  const double step_host = tr.total("md.step");
  res.gate(step_host <= traced.host_s && step_host >= 0.99 * traced.host_s,
           std::string(spec.name) + ": md.step spans sum to " +
               std::to_string(step_host) + " s of " +
               std::to_string(traced.host_s) + " s timed around the steps");
  tr.write_jsonl(args.scratch + "/spans-" + spec.name + ".jsonl");

  const double sr_host = tr.total("core.sr.compute");
  const double pl_host = tr.total("core.pairlist.build");
  const double pme_host = tr.total("pme.compute");
  auto per = [](double x, double n) { return n > 0.0 ? x / n : 0.0; };
  res.set("core.sr.calls", static_cast<double>(tsr.calls), "count");
  res.set("core.sr.host_ms_per_call",
          per(sr_host, static_cast<double>(tsr.calls)) * 1e3, "ms");
  res.set("core.sr.sim_ms_per_call",
          per(tsr.sim_seconds, static_cast<double>(tsr.calls)) * 1e3, "ms");
  res.set("core.pairlist.builds", static_cast<double>(tpl.builds), "count");
  res.set("core.pairlist.host_ms_per_build",
          per(pl_host, static_cast<double>(tpl.builds)) * 1e3, "ms");
  res.set("core.pairlist.sim_ms_per_build",
          per(tpl.sim_seconds, static_cast<double>(tpl.builds)) * 1e3, "ms");
  res.set("core.pairlist.pairs_per_cluster", per(tpl.pairs, tpl.clusters),
          "pairs/cluster");
  res.set("core.pairlist.extra_pairs_vs_brute",
          check_pairlist_containment(spec, seed, res), "count");
  const auto pme_calls = static_cast<double>(pme_calls_n);
  res.set("pme.host_ms_per_call", per(pme_host, pme_calls) * 1e3, "ms");
  res.set("pme.sim_ms_per_call",
          per(eng->tlr ? eng->tlr->sim_seconds : 0.0, pme_calls) * 1e3, "ms");
  res.set("md.self.host_ms_per_step", self_s / kSimSteps * 1e3, "ms");
  res.set("core.sr.host_share", per(sr_host, step_host), "ratio");
  res.set("core.pairlist.host_share", per(pl_host, step_host), "ratio");
  res.set("pme.host_share", per(pme_host, step_host), "ratio");
  res.set("md.self.host_share", per(self_s, step_host), "ratio");
  res.set("trace.overhead_frac", traced.host_s / plain.host_s - 1.0, "ratio");
  res.set("host.cpu_atom_steps_per_s", particles * kSimSteps / window_cpu_s,
          "atom-steps/cpu-s");
  res.set("host.cpu_setup_s", median(setup_cpu_s), "s");

  std::vector<double> step_ms, rebuild_ms;
  for (const StepSample& s : steps)
    (s.rebuild ? rebuild_ms : step_ms).push_back(s.host_s);
  res.set("md.step.host_ms_p50",
          print_percentile("md.step host (untraced)", step_ms, 0.5, 1e3, "ms") *
              1e3,
          "ms");
  res.set("md.step.samples", static_cast<double>(step_ms.size()), "count");
  res.set("md.rebuild_step.host_ms_p50",
          print_percentile("md.rebuild_step host (untraced)", rebuild_ms, 0.5,
                           1e3, "ms") *
              1e3,
          "ms");
  res.set("md.rebuild_step.samples", static_cast<double>(rebuild_ms.size()),
          "count");
  report_sim_layers(traced.sim, kSimSteps, res);

  std::printf("  host shares of md.step (traced): core.sr %.3f, "
              "core.pairlist %.3f, pme %.3f, md self %.3f; tracing overhead "
              "%+.3f\n",
              per(sr_host, step_host), per(pl_host, step_host),
              per(pme_host, step_host), per(self_s, step_host),
              traced.host_s / plain.host_s - 1.0);
  res.attempt(2 * static_cast<std::uint64_t>(kSimSteps));
  res.fail(rollbacks_plain + eng->rollbacks());
}

}  // namespace perfbench
