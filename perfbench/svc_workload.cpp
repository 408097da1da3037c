// The svc-fleet workload: an open loop of fault-free water jobs through one
// JobScheduler with 3 hosts, journaling on and preemption checkpoints in the
// run's scratch directory.
//
// Arrivals are scheduled on the simulated clock, whatever the service does,
// so every job's latency is measured from the time it was due. Sizes run from
// 96 to 768 particles, 20-40 steps each, over three tenants plus a priority
// tenant whose arrivals preempt running jobs when every host is busy. The
// fleet is re-run until --seconds of run_until_idle have been timed.
//
// Gates: every job Completed; a fixed sample re-run through svc::run_solo is
// bit-identical; recover() on a fresh scheduler from the clean journal drops
// no frame and restores every job with its finish time and final state.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "svc/journal.hpp"
#include "svc/scheduler.hpp"

namespace perfbench {
namespace {

using namespace swgmx;

/// Job-mix strata: 4 size bands (log-uniform from 96 to 768 particles) x
/// 3 step bands (20-40 steps). Every block of kMix consecutive arrivals
/// holds each stratum once, in a seed-shuffled order; sizes and step counts
/// spread inside the bands so service times, and so latency percentiles,
/// vary continuously.
constexpr int kSizeBands = 4;
constexpr int kStepBands = 3;
constexpr int kMix = kSizeBands * kStepBands;
constexpr int kBlocks = 18;
constexpr int kJobs = kBlocks * kMix;  ///< 216: eleven samples beyond p95
constexpr int kHosts = 3;
/// Arrival gap in simulated seconds: about 0.75 of the three hosts'
/// capacity for this job mix.
constexpr double kGap = 1.4e-3;
/// One arrival in kPriorityEvery (at a seed-chosen slot of each block of
/// that many) comes from the priority tenant.
constexpr int kPriorityEvery = 18;
/// Every kSoloStride-th job is re-run alone and compared bit for bit.
constexpr int kSoloStride = 24;
/// Timed set-ups per run (median reported). Each writes kJobs fsync'd
/// journal records.
constexpr int kSetups = 11;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& rng) {
  for (std::size_t k = v.size() - 1; k > 0; --k)
    std::swap(v[k], v[splitmix(rng) % (k + 1)]);
}

/// The fleet of one seed. Arrivals are paced kGap apart. Each stratum's
/// kBlocks (size, steps) draws are a fixed, evenly spread set that the seed
/// only deals out over the blocks, so seeds differ in arrival order, tenants,
/// priority slots and water boxes but not in the job mix or the offered
/// load: with random gaps and draws the latency percentiles moved 10-40%
/// from seed to seed.
std::vector<svc::JobSpec> make_fleet(std::uint64_t seed) {
  static const char* const kTenants[3] = {"acme", "globex", "initech"};
  std::uint64_t rng = seed;
  std::vector<std::vector<int>> deal(kMix, std::vector<int>(kBlocks));
  for (std::vector<int>& d : deal) {
    for (int b = 0; b < kBlocks; ++b) d[static_cast<std::size_t>(b)] = b;
    shuffle(d, rng);
  }
  std::vector<svc::JobSpec> fleet;
  std::vector<int> mix(kMix);
  int vip_slot = 0;
  double t = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    if (i % kMix == 0) {
      for (int k = 0; k < kMix; ++k) mix[static_cast<std::size_t>(k)] = k;
      shuffle(mix, rng);
    }
    if (i % kPriorityEvery == 0)
      vip_slot = i + static_cast<int>(splitmix(rng) % kPriorityEvery);
    const int combo = mix[static_cast<std::size_t>(i % kMix)];
    const int draw = deal[static_cast<std::size_t>(combo)]
                         [static_cast<std::size_t>(i / kMix)];
    svc::JobSpec s;
    t += kGap;
    s.arrival_s = t;
    if (i == vip_slot) {
      s.tenant = "vip";
      s.priority = 1;
    } else {
      s.tenant = kTenants[splitmix(rng) % 3];
    }
    s.name = "job" + std::to_string(i);
    const double band =
        (combo % kSizeBands + (draw + 0.5) / kBlocks) / kSizeBands;
    s.particles = 3 * static_cast<std::size_t>(32.0 * std::pow(8.0, band));
    s.steps = 20 + 7 * (combo / kSizeBands) + (draw * 3) % 7;
    s.seed = 1 + static_cast<unsigned>(splitmix(rng) % 1000);
    fleet.push_back(s);
  }
  return fleet;
}

svc::ServiceOptions fleet_options(const std::string& dir) {
  svc::ServiceOptions o;
  o.hosts = kHosts;
  o.queue_limit = kJobs;   // open loop: admit everything, let the queue grow
  o.tenant_quota = kJobs;
  o.checkpoint_dir = dir + "/cpt";
  o.journal_dir = dir + "/journal";
  return o;
}

/// Outcome of one job, copied out before the scheduler is torn down.
struct Outcome {
  svc::JobState state = svc::JobState::Pending;
  double finish_s = 0.0;
  AlignedVector<Vec3f> x, v;
  std::vector<md::EnergySample> series;
};

/// Empty directory for one scheduler's journal and checkpoints.
std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Scheduler built and loaded with the fleet: the workload's set-up. `dir`
/// must be empty.
std::unique_ptr<svc::JobScheduler> setup_fleet(
    const std::vector<svc::JobSpec>& fleet, const std::string& dir,
    Tracer* tr) {
  auto sched = std::make_unique<svc::JobScheduler>(fleet_options(dir));
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    SpanScope span(tr, "svc.submit", static_cast<std::int64_t>(i));
    sched->submit(fleet[i]);
  }
  return sched;
}

}  // namespace

void run_svc_fleet(const Args& args, Result& res) {
  const std::vector<svc::JobSpec> fleet = make_fleet(args.fleet_seed);
  double atom_steps = 0.0;
  std::uint64_t steps_total = 0;
  for (const svc::JobSpec& s : fleet) {
    atom_steps += static_cast<double>(s.particles) * s.steps;
    steps_total += static_cast<std::uint64_t>(s.steps);
  }
  std::cout << "svc-fleet: " << fleet.size() << " jobs, " << kHosts
            << " hosts, fleet seed " << args.fleet_seed << ", offered "
            << 1.0 / kGap << " jobs per simulated second, last arrival "
            << fleet.back().arrival_s << " s\n";

  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  // Set-up, timed several times on the wall clock (and in CPU time for the
  // per-layer numbers), each into its own empty directory made outside the
  // timed window; the last scheduler is kept.
  std::vector<double> setup_s, setup_cpu_s;
  std::unique_ptr<svc::JobScheduler> sched;
  std::string dir;
  for (int k = 0; k < kSetups; ++k) {
    sched.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = fresh_dir(args.scratch + "/fleet-" + std::to_string(k));
    tracer = Tracer();
    const HostClock c0 = HostClock::now();
    sched = setup_fleet(fleet, dir, tr);
    const HostClock c1 = HostClock::now();
    setup_s.push_back(c1.wall - c0.wall);
    setup_cpu_s.push_back(c1.cpu - c0.cpu);
  }

  const HostClock run0 = HostClock::now();
  {
    SpanScope span(tr, "svc.run_until_idle", 0);
    sched->run_until_idle();
  }
  const HostClock run1 = HostClock::now();
  const double run_s = run1.wall - run0.wall;

  // Peak memory of the workload itself, before the gates below re-run jobs
  // and replay the journal.
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  const svc::ServiceStats& st = sched->stats();
  std::vector<Outcome> out(fleet.size());
  std::vector<double> latency;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const svc::Job& j = sched->job(static_cast<int>(i));
    out[i] = {j.state, j.finish_s, j.final_x(), j.final_v(), j.energy_series()};
    if (j.state == svc::JobState::Completed) {
      ++completed;
      latency.push_back(j.finish_s - j.spec().arrival_s);
    }
  }
  res.attempt(fleet.size());
  res.fail(fleet.size() - completed);
  res.gate(completed == fleet.size(), "all " + std::to_string(fleet.size()) +
                                          " jobs Completed (" +
                                          std::to_string(completed) + ")");

  const double makespan = sched->now();
  double busy = 0.0;
  for (const svc::Host& h : sched->hosts()) busy += h.busy_seconds;
  const double journal_events =
      static_cast<double>(sched->journal()->events_appended());
  const double journal_mb =
      static_cast<double>(std::filesystem::file_size(sched->journal()->path())) /
      1e6;
  const double checkpoint_writes =
      static_cast<double>(sched->recovery().checkpoints_written);
  obs::MetricsRegistry rolled, kernels;
  sched->rollup_into(rolled);
  kernels.merge_from(rolled, "svc/total/", "");
  const svc::ServiceOptions opt = sched->options();
  const std::size_t max_queue = st.max_queue_depth;
  const std::uint64_t preemptions = st.preemptions, resumes = st.resumes,
                      retries = st.retries;
  sched.reset();  // closes the journal before recovery reads it

  // Recovery from the clean journal on a fresh scheduler.
  svc::JobScheduler fresh(opt);
  double recover_s = 0.0;
  svc::JobScheduler::RecoverySummary rec;
  {
    SpanScope span(tr, "svc.recover", 0);
    const double t0 = host_now();
    rec = fresh.recover();
    recover_s = host_now() - t0;
  }
  bool restored = fresh.jobs().size() == fleet.size();
  for (std::size_t i = 0; restored && i < fleet.size(); ++i) {
    const svc::Job& j = fresh.job(static_cast<int>(i));
    restored = j.state == out[i].state && j.finish_s == out[i].finish_s &&
               same_bytes(j.final_x(), out[i].x) &&
               same_bytes(j.final_v(), out[i].v);
  }
  res.gate(rec.frames_dropped == 0 && rec.jobs_restored == fleet.size() &&
               restored,
           "recover() replayed " + std::to_string(rec.events_replayed) +
               " events, dropped " + std::to_string(rec.frames_dropped) +
               " frames, restored " + std::to_string(rec.jobs_restored) +
               " jobs bit-identical");

  std::size_t solo_ok = 0, solo_n = 0;
  for (std::size_t i = 0; i < fleet.size(); i += kSoloStride) {
    ++solo_n;
    const svc::SoloResult solo = svc::run_solo(fleet[i], opt);
    if (solo.completed && same_bytes(solo.x, out[i].x) &&
        same_bytes(solo.v, out[i].v) && same_bytes(solo.series, out[i].series))
      ++solo_ok;
  }
  res.gate(solo_ok == solo_n, std::to_string(solo_ok) + "/" +
                                  std::to_string(solo_n) +
                                  " sampled jobs bit-identical to run_solo");

  if (!args.trace) {
    // Keep timing fresh copies of the same fleet until --seconds of
    // run_until_idle are measured; every copy must schedule identically.
    // Each copy is timed on the wall clock without the stolen share.
    double measured = run_s, unstolen = unstolen_wall(run0, run1);
    double run_cpu_s = run1.cpu - run0.cpu, stolen = run1.steal - run0.steal;
    double work = atom_steps;
    while (measured < args.seconds) {
      auto again = setup_fleet(fleet, fresh_dir(args.scratch + "/again"), nullptr);
      const HostClock c0 = HostClock::now();
      again->run_until_idle();
      const HostClock c1 = HostClock::now();
      measured += c1.wall - c0.wall;
      unstolen += unstolen_wall(c0, c1);
      run_cpu_s += c1.cpu - c0.cpu;
      stolen += c1.steal - c0.steal;
      work += atom_steps;
      bool same = true;
      for (std::size_t i = 0; i < fleet.size(); ++i)
        same = same && again->job(static_cast<int>(i)).finish_s == out[i].finish_s;
      res.attempt(fleet.size());
      res.gate(same, "repeated fleet scheduled identically");
    }
    const double throughput = work / unstolen;
    const double ns_per_day =
        static_cast<double>(steps_total) * 0.002 / 1e3 / busy * 86400.0;
    std::printf("  setup_s               = %.6g s wall, %.6g CPU s (median of "
                "%zu)\n",
                median(setup_s), median(setup_cpu_s), setup_s.size());
    std::printf("  host_atom_steps_per_s = %.6g atom-steps/s (%.4g atom-steps "
                "in %.4g s of run_until_idle without steal, %.4g s wall, "
                "%.3g s stolen)\n",
                throughput, work, unstolen, measured, stolen);
    std::printf("  host.cpu_atom_steps_per_s = %.6g (%.4g CPU s)\n",
                work / run_cpu_s, run_cpu_s);
    std::printf("  sim_ns_per_day        = %.6g ns/day per busy host\n",
                ns_per_day);
    const double p50 = print_percentile("sim_latency (per job)", latency, 0.50,
                                        1e3, "ms");
    const double p95 = print_percentile("sim_latency (per job)", latency, 0.95,
                                        1e3, "ms");
    res.set("setup_s", median(setup_s), "s");
    res.set("host_atom_steps_per_s", throughput, "atom-steps/s");
    res.set("sim_ns_per_day", ns_per_day, "ns/day");
    res.set("sim_latency_p50_s", p50, "s");
    res.set("sim_latency_p95_s", p95, "s");
    return;
  }

  tracer.write_jsonl(args.scratch + "/spans-svc-fleet.jsonl");
  res.set("svc.run_host_s", run_s, "s");
  res.set("host.cpu_atom_steps_per_s", atom_steps / (run1.cpu - run0.cpu),
          "atom-steps/cpu-s");
  res.set("host.cpu_setup_s", median(setup_cpu_s), "s");
  res.set("svc.submit_host_us_per_job",
          tracer.total("svc.submit") / static_cast<double>(fleet.size()) * 1e6,
          "us");
  res.set("svc.recover_ms", recover_s * 1e3, "ms");
  res.set("svc.sim_makespan_s", makespan, "s");
  res.set("svc.host_utilization", busy / (kHosts * makespan), "ratio");
  res.set("svc.max_queue_depth", static_cast<double>(max_queue), "count");
  res.set("svc.preemptions", static_cast<double>(preemptions), "count");
  res.set("svc.resumes", static_cast<double>(resumes), "count");
  res.set("svc.retries", static_cast<double>(retries), "count");
  res.set("io.journal_events", journal_events, "count");
  res.set("io.journal_mb", journal_mb, "MB");
  res.set("io.checkpoint_writes", checkpoint_writes, "count");
  SimSnapshot snap;
  add_registry(kernels, snap);
  report_sim_layers(snap, static_cast<double>(steps_total), res);
  std::printf("  fleet: makespan %.6g s simulated, host utilization %.3f, "
              "%llu preemptions, max queue %zu, run_until_idle %.3f s host, "
              "recover %.3f ms\n",
              makespan, busy / (kHosts * makespan),
              static_cast<unsigned long long>(preemptions), max_queue, run_s,
              recover_s * 1e3);
}

}  // namespace perfbench
