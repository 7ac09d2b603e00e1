// Repository benchmark: runs one workload as a closed loop of ops for
// a fixed wall time and prints its metrics, the last stdout line being one
// JSON object {correct, attempted, failed, metrics}.
//
//   sdt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// A run first executes a reference round (untimed) whose outputs every later
// op must reproduce, then untimed warm-up ops, then timed ops until
// --seconds have passed (at least one). --trace 0 reports the end-to-end
// metrics. --trace 1 alternates untraced and traced ops and reports the
// per-layer metrics of the traced ones, the tracing overhead, and how much
// of each traced op its child spans cover; spans go to --trace-out.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "obs/export.hpp"

namespace perfbench {
namespace {

using sdt::json::Object;
using sdt::json::Value;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics; a layer a workload does not load reads 0.
constexpr Metric kPerLayer[] = {
    {"engine.events", "count"},
    {"engine.ns_per_event", "ns"},
    {"engine.pending_peak", "count"},
    {"engine.windows", "count"},
    {"engine.events_per_window", "count"},
    {"engine.cross_shard_events", "count"},
    {"engine.shard_skew", "ratio"},
    {"engine.cpu_per_wall", "ratio"},
    {"network.tx_packets", "count"},
    {"network.pauses", "count"},
    {"network.ecn_marks", "count"},
    {"network.drops", "count"},
    {"network.peak_queue_bytes", "bytes"},
    {"openflow.lookups", "count"},
    {"openflow.lookup_ns", "ns"},
    {"openflow.rules", "count"},
    {"openflow.install_ms", "ms"},
    {"transport.cnps", "count"},
    {"transport.delivered_bytes", "bytes"},
    {"mpi.act_ns", "sim-ns"},
    {"mpi.injected_bytes", "bytes"},
    {"serving.offered", "count"},
    {"serving.completed", "count"},
    {"serving.shed", "count"},
    {"serving.slo_hit", "count"},
    {"admission.deferred", "count"},
    {"admission.peak_pressure", "ratio"},
    {"controller.deploy_ms", "ms"},
    {"controller.plan_ms", "ms"},
    {"controller.tx_ms", "ms"},
    {"controller.flow_mods", "count"},
    {"controller.retries", "count"},
    {"controller.rollbacks", "count"},
    {"controller.update_window_us", "us"},
    {"routing.build_ms", "ms"},
    {"routing.deadlock_ms", "ms"},
    {"projection.plan_plant_ms", "ms"},
    {"projection.project_ms", "ms"},
    {"projection.inter_switch_links", "count"},
    {"sim.build_ms", "ms"},
    {"topo.generate_ms", "ms"},
    // The traced ops' own throughput, the overhead against the untraced ops
    // of the same run, and the least share of a traced op its spans cover.
    {"trace.sim_ns_per_s", "sim-ns/s"},
    {"trace.overhead", "ratio"},
    {"trace.coverage_min", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sdt_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds >= 0.0) || a.seconds > 600.0) {
        usage("--seconds takes a number in [0, 600]");
      }
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (key == "--trace-out") {
      a.traceOut = v;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Linear-interpolated percentile (q in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return v.empty() ? 0.0 : percentile(v, 0.5); }

/// Peak resident memory of this program image (VmHWM). getrusage's
/// ru_maxrss would not do: Linux carries the parent's peak across exec, and
/// run.py's Python process is larger than some workloads.
double peakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Empty when `got` reproduces `want`; otherwise what differs.
std::string diffFingerprint(const std::vector<std::pair<std::string, std::int64_t>>& want,
                            const std::vector<std::pair<std::string, std::int64_t>>& got) {
  if (want.size() != got.size()) return "output shape differs";
  std::string out;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      out += " " + got[i].first + "=" + std::to_string(got[i].second) + " (reference " +
             std::to_string(want[i].second) + ")";
    }
  }
  return out;
}

/// Self time of every span (its duration minus its direct children's) and
/// the share of each root span ("op") its children cover.
struct SpanSummary {
  std::map<std::string, std::vector<double>> selfMs;
  std::vector<double> coverage;
};

SpanSummary summarize(const std::vector<sdt::obs::Span>& spans) {
  std::vector<double> childNs(spans.size(), 0.0);
  for (const sdt::obs::Span& s : spans) {
    if (s.parent != sdt::obs::kNoSpan) {
      childNs[s.parent] += static_cast<double>(s.duration());
    }
  }
  SpanSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto dur = static_cast<double>(spans[i].duration());
    out.selfMs[spans[i].name].push_back((dur - childNs[i]) * 1e-6);
    if (spans[i].parent == sdt::obs::kNoSpan && dur > 0.0) {
      out.coverage.push_back(childNs[i] / dur);
    }
  }
  return out;
}

int run(const Args& args) {
  auto workload = makeWorkload(args.workload, args.seed, args.trace);
  if (!workload) {
    std::string names;
    for (const std::string& n : workloadNames()) names += " " + n;
    std::fprintf(stderr, "error: unknown workload '%s'; known:%s\n", args.workload.c_str(),
                 names.c_str());
    return 2;
  }
  Workload& w = *workload;
  const Value runCard(Object{
      {"workload", args.workload},
      {"seed", static_cast<std::int64_t>(args.seed)},
      {"hw_threads", static_cast<std::int64_t>(std::thread::hardware_concurrency())},
      {"shards", static_cast<std::int64_t>(w.shards())},
      {"workers", static_cast<std::int64_t>(w.workers())},
      {"build_type", std::string(PERFBENCH_BUILD_TYPE)},
      {"seconds", args.seconds},
      {"trace", args.trace}});
  std::printf("run_card %s\n", runCard.dump().c_str());

  int index = 0;
  bool correct = true;
  // An op fails when it rolls back or breaks an output check; the latter
  // also makes the run incorrect.
  auto check = [&](const OpResult& r, const std::vector<std::pair<std::string, std::int64_t>>&
                                          reference) {
    std::string why = r.error;
    if (why.empty()) why = diffFingerprint(reference, r.fingerprint);
    if (!why.empty()) {
      correct = false;
      std::printf("op %d failed its output check:%s%s\n", index, why[0] == ' ' ? "" : " ",
                  why.c_str());
    }
    return why.empty() && !r.rolledBack;
  };

  std::vector<std::vector<std::pair<std::string, std::int64_t>>> reference;
  for (int k = 0; k < w.roundOps(); ++k, ++index) {
    const OpResult r = w.op(index, true, nullptr);
    if (!r.error.empty() || r.rolledBack) {
      std::fprintf(stderr, "error: reference op %d failed: %s\n", index,
                   r.error.empty() ? "rolled back" : r.error.c_str());
      return 1;
    }
    reference.push_back(r.fingerprint);
  }
  for (int k = 0; k < w.warmupOps(); ++k, ++index) {
    (void)check(w.op(index, false, nullptr), reference[index % w.roundOps()]);
  }

  sdt::obs::Tracer tracer;
  std::vector<OpResult> plain;
  std::vector<OpResult> traced;
  int attempted = 0;
  int failed = 0;
  const std::int64_t deadline = wallNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    const bool traceThis = args.trace && attempted % 2 == 1;
    OpResult r = w.op(index, false, traceThis ? &tracer : nullptr);
    if (!check(r, reference[index % w.roundOps()])) ++failed;
    ++attempted;
    ++index;
    (traceThis ? traced : plain).push_back(std::move(r));
  } while (wallNs() < deadline || (args.trace && traced.empty()));

  std::vector<double> throughput;
  std::vector<double> opMs;
  std::vector<double> setups = w.setupSamples();
  for (const OpResult& r : plain) {
    throughput.push_back(r.engineSeconds > 0.0 ? r.simNs / r.engineSeconds : 0.0);
    opMs.push_back(r.opSeconds * 1e3);
    if (r.setupSeconds >= 0.0) setups.push_back(r.setupSeconds);
  }

  Object metrics;
  auto report = [&](const char* name, double value, const char* unit, std::size_t n) {
    std::printf("%-30s %16.6g %-9s (n=%zu)\n", name, value, unit, n);
    metrics[name] = Object{{"value", value}, {"unit", std::string(unit)}};
  };
  if (!args.trace) {
    report("sim_ns_per_s", median(throughput), "sim-ns/s", throughput.size());
    report("setup_s", median(setups), "s", setups.size());
    report("op_p50_ms", percentile(opMs, 0.5), "ms", opMs.size());
    report("op_p90_ms", percentile(opMs, 0.9), "ms", opMs.size());
    report("peak_rss_mb", peakRssMiB(), "MiB", 1);
  } else {
    const SpanSummary spans = summarize(tracer.spans());
    std::vector<double> tracedThroughput;
    for (const OpResult& r : traced) {
      tracedThroughput.push_back(r.engineSeconds > 0.0 ? r.simNs / r.engineSeconds : 0.0);
    }
    const double plainMedian = median(throughput);
    const double tracedMedian = median(tracedThroughput);
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double value = 0.0;
      std::size_t n = traced.size();
      if (name == "trace.sim_ns_per_s") {
        value = tracedMedian;
      } else if (name == "trace.overhead") {
        value = plainMedian > 0.0 ? 1.0 - tracedMedian / plainMedian : 0.0;
      } else if (name == "trace.coverage_min") {
        value = spans.coverage.empty()
                    ? 0.0
                    : *std::min_element(spans.coverage.begin(), spans.coverage.end());
        n = spans.coverage.size();
      } else {
        std::vector<double> v;
        for (const OpResult& r : traced) {
          if (auto it = r.layers.find(name); it != r.layers.end()) v.push_back(it->second);
        }
        value = median(v);
        n = v.size();
      }
      report(m.name, value, m.unit, n);
    }
    std::printf("self time per span (median ms over traced ops):\n");
    Object self;
    for (const auto& [name, ms] : spans.selfMs) {
      std::printf("  %-28s %10.4f (n=%zu)\n", name.c_str(), median(ms), ms.size());
      self[name] = median(ms);
    }
    if (!args.traceOut.empty()) {
      const Value doc(Object{{"run_card", runCard},
                             {"self_ms_median", Value(std::move(self))},
                             {"spans", sdt::obs::tracerToJson(tracer)}});
      std::FILE* f = std::fopen(args.traceOut.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n", args.traceOut.c_str());
        return 1;
      }
      const std::string text = doc.dump();
      const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "error: short write to %s\n", args.traceOut.c_str());
        return 1;
      }
      std::printf("spans written to %s\n", args.traceOut.c_str());
    }
  }

  const Value result(Object{{"correct", correct},
                            {"attempted", static_cast<std::int64_t>(attempted)},
                            {"failed", static_cast<std::int64_t>(failed)},
                            {"metrics", Value(std::move(metrics))}});
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::wallNs();  // start the clock
  return perfbench::run(perfbench::parseArgs(argc, argv));
}
