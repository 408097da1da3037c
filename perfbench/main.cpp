// swgmx_perfbench: one workload of the repository benchmark per process.
//
//   swgmx_perfbench --workload rf-1cg|pme-16r|svc-fleet --water-seed N
//                   --fleet-seed N --seconds S --trace 0|1 --scratch DIR
//
// Prints a human report, a PROVENANCE line and, last, one RESULT line:
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones (untraced run); with
// --trace 1 the per-layer ones (untraced run plus a traced replay). Exits 1
// when any correctness gate fails, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

void Result::gate(bool ok, const std::string& what) {
  std::cout << (ok ? "  gate ok:   " : "  GATE FAIL: ") << what << "\n";
  if (!ok) {
    gate_failures_.push_back(what);
    ++failed_;
  }
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) gate(false, "metric " + name + " is not finite");
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Result::print(std::ostream& os) const {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "RESULT {\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",") << '"' << swgmx::obs::json_escape(name)
       << "\":{\"value\":" << m.value
       << ",\"unit\":\"" << swgmx::obs::json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "}}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double exact_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0 || v.size() - rank < 10) {
    throw std::runtime_error("p" + std::to_string(static_cast<int>(p * 100)) +
                             " of " + std::to_string(v.size()) +
                             " samples has fewer than 10 samples beyond it");
  }
  return v[rank - 1];
}

double print_percentile(const std::string& label, const std::vector<double>& v,
                        double p, double scale, const std::string& unit) {
  const double x = exact_percentile(v, p);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  std::printf("  %-34s p%-2d = %.6g %s (n=%zu, beyond=%zu)\n", label.c_str(),
              static_cast<int>(p * 100), x * scale, unit.c_str(), v.size(),
              v.size() - rank);
  return x;
}

HostClock HostClock::now() {
  HostClock c;
  c.wall = host_now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  c.cpu = sec(ru.ru_utime) + sec(ru.ru_stime);
  // Aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  double ticks[8] = {};
  if (stat >> label && label == "cpu") {
    for (double& t : ticks) stat >> t;
    if (stat) c.steal = ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return c;
}

double unstolen_wall(const HostClock& a, const HostClock& b) {
  const double wall = b.wall - a.wall;
  const double cpu = b.cpu - a.cpu;
  const double steal = b.steal - a.steal;
  return cpu > 0.0 && steal > 0.0 ? wall * cpu / (cpu + steal) : wall;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

int Tracer::open(std::string name, std::int64_t id) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (id < 0 && parent >= 0) id = spans_[static_cast<std::size_t>(parent)].id;
  spans_.push_back({std::move(name), id, parent, host_now(), 0.0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1 = host_now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& sp) { return sp.name == name; }));
}

double Tracer::total(const std::string& name) const {
  double s = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name) s += sp.t1 - sp.t0;
  return s;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  os.precision(std::numeric_limits<double>::max_digits10);
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"start\":" << s.t0 - base
       << ",\"end\":" << s.t1 - base << "}\n";
  }
}

double self_time(const Tracer& tr, const std::string& parent_name) {
  const auto& spans = tr.spans();
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    } else if (spans[i].name != parent_name) {
      throw std::runtime_error("span " + spans[i].name + " " +
                               std::to_string(spans[i].id) +
                               " ran outside every " + parent_name + " span");
    }
  }
  double self_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.name != parent_name) continue;
    double covered = 0.0;
    double cursor = p.t0;
    for (const int c : children[i]) {  // opened in time order
      const Span& ch = spans[static_cast<std::size_t>(c)];
      if (ch.t0 < cursor || ch.t1 < ch.t0 || ch.t1 > p.t1)
        throw std::runtime_error("span " + ch.name + " of " + parent_name +
                                 " " + std::to_string(p.id) +
                                 " overlaps a sibling or leaves its parent");
      covered += ch.t1 - ch.t0;
      cursor = ch.t1;
    }
    self_total += (p.t1 - p.t0) - covered;
  }
  return self_total;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "swgmx_perfbench: " << why
            << "\nusage: swgmx_perfbench --workload rf-1cg|pme-16r|svc-fleet "
               "--water-seed N --fleet-seed N --seconds S "
               "--trace 0|1 --scratch DIR\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--water-seed")
        a.water_seed = static_cast<unsigned>(std::stoul(val));
      else if (key == "--fleet-seed") a.fleet_seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--scratch") a.scratch = val;
      else usage(("unknown argument " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.scratch.empty()) usage("--scratch is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  std::filesystem::create_directories(args.scratch);

  const std::size_t threads = swgmx::common::ThreadPool::global().size();
  std::cout << "PROVENANCE {\"workload\":\"" << args.workload
            << "\",\"water_seed\":" << args.water_seed
            << ",\"fleet_seed\":" << args.fleet_seed
            << ",\"seconds\":" << args.seconds
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"host_threads\":" << threads
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"compiler\":\"" << PERFBENCH_COMPILER << "\"}\n";

  perfbench::Result res;
  try {
    if (args.workload == "rf-1cg" || args.workload == "pme-16r") {
      perfbench::run_md_workload(args, res);
    } else if (args.workload == "svc-fleet") {
      perfbench::run_svc_fleet(args, res);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    res.gate(false, std::string("run aborted: ") + e.what());
  }
  // Every failed gate is a failed operation, so never report fewer attempts.
  if (res.attempted() < res.failed()) res.attempt(res.failed() - res.attempted());
  const double failed_frac =
      res.attempted() == 0 ? 1.0
                           : static_cast<double>(res.failed()) /
                                 static_cast<double>(res.attempted());
  std::cout << "  failed_frac = " << failed_frac << " (" << res.failed()
            << " failed of " << res.attempted() << " attempted)\n";
  std::cout.flush();
  res.print(std::cout);
  return res.correct() ? 0 : 1;
}
