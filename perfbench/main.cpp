// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--expect-digest <hex>] [--trace-file <path>]
//                    [--commit <id>] [--setup-only]
//
// --trace 0 times iterations (closed loop, one at a time, the first one
// untimed) for --seconds and reports the end-to-end metrics. --trace 1
// alternates untraced and traced iterations for --seconds, writes the
// spans to --trace-file and reports the per-layer metrics.
// --setup-only builds the workload, prints "ready" and exits; run.py times
// process start to that line. The last stdout line is one JSON object.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  std::string expect_digest;
  std::string trace_file;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--expect-digest") {
      a.expect_digest = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return a;
}

/// Cores this process may run on (what `nproc` prints).
int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// CPU time of the whole process, every thread included (joined ones too).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void check_iteration(const Workload& w, const Iteration& it, Checks& checks) {
  for (const PointResult& p : it.points) {
    check_identities(w.scenario, view(w.scenario, p), checks);
  }
  for (const ReplicationOutput& r : it.replications) {
    check_identities(w.scenario, view(w.scenario, r), checks);
  }
}

struct Measurement {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::uint64_t delivered = 0;  ///< per iteration, both sides
  std::uint64_t digest = 0;
  Iteration last;
};

/// Runs each of `runs` once untimed, then times them one iteration at a
/// time, in turn, until `seconds` have passed (at least three timed
/// iterations each); taking turns spreads drift on the machine over every
/// run alike. Every iteration is checked, and must reproduce the digest of
/// its run's first one.
std::vector<Measurement> measure(
    const Workload& w, double seconds, Checks& checks,
    const std::vector<std::function<Iteration()>>& runs) {
  std::vector<Measurement> ms(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    Measurement& m = ms[r];
    m.last = runs[r]();
    check_iteration(w, m.last, checks);
    m.digest = digest(w.scenario, m.last.points);
    for (const PointResult& p : m.last.points) {
      for (const SideView& s : view(w.scenario, p).side) {
        m.delivered += s.delivered;
      }
    }
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (ms.front().wall_s.size() < 3 || Clock::now() < deadline) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      Measurement& m = ms[r];
      m.last = Iteration{};
      const double c0 = process_cpu_s();
      const auto t0 = Clock::now();
      m.last = runs[r]();
      const auto t1 = Clock::now();
      const double c1 = process_cpu_s();
      m.wall_s.push_back(seconds_between(t0, t1));
      m.cpu_s.push_back(c1 - c0);
      check_iteration(w, m.last, checks);
      checks.expect(digest(w.scenario, m.last.points) == m.digest,
                    "iteration reproduces the first iteration's digest");
    }
  }
  return ms;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance_json(const Args& a, const Workload& w, int nproc) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << a.seed
    << ", \"nproc\": " << nproc << ", \"hardware_concurrency\": "
    << std::thread::hardware_concurrency() << ", \"compiler\": "
#if defined(__clang__)
    << json_string(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
    << json_string(std::string("gcc ") + __VERSION__)
#else
    << json_string("unknown")
#endif
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"commit\": " << json_string(a.commit)
    << ", \"run_seconds\": " << a.seconds << ", \"trace\": " << a.trace
    << ", \"knobs\": " << knobs_json(w) << "}";
  return o.str();
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics,
                  std::uint64_t digest_value, const std::string& provenance) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
    << ", \"attempted\": " << checks.attempted()
    << ", \"failed\": " << checks.failed() << ", \"digest\": \""
    << hex64(digest_value) << "\", \"provenance\": " << provenance
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
      << metrics[i].value << ", \"unit\": " << json_string(metrics[i].unit)
      << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

int run(const Args& a) {
  const int nproc = available_cores();
  const Workload w = make_workload(a.workload, a.seed, nproc);
  if (a.setup_only) {
    std::cout << "ready" << std::endl;
    return 0;
  }
  const std::string provenance = provenance_json(a, w, nproc);
  Checks checks;
  std::vector<Metric> metrics;
  std::uint64_t run_digest = 0;

  if (a.trace == 0) {
    const Measurement m =
        measure(w, a.seconds, checks, {[&] { return run_iteration(w); }})
            .front();
    run_digest = m.digest;
    if (!w.partitioned) {
      // Replication by replication: checks every replication's identities
      // and that run_sweep equals merge_replications over run_replication.
      Tracer unused;
      IterationLedger ledger;
      const Iteration replay = run_traced_iteration(w, unused, ledger);
      check_iteration(w, replay, checks);
      checks.expect(digest(w.scenario, replay.points) == m.digest,
                    "replication-by-replication replay reproduces the digest");
    } else {
      Workload many = w;
      many.scenario.partition_workers = std::min(w.scenario.partitions, nproc);
      checks.expect(digest(w.scenario, run_iteration(many).points) == m.digest,
                    "partitioned digest identical at " +
                        std::to_string(w.workers) + " and " +
                        std::to_string(many.scenario.partition_workers) +
                        " workers");
    }
    const double wall = median(m.wall_s);
    metrics = {
        {"wall_s", "s", wall},
        {"sim_req_per_s", "req/s", static_cast<double>(m.delivered) / wall},
        {"cpu_s", "s", median(m.cpu_s)},
        {"peak_rss_mb", "MiB", peak_rss_mib()},
    };
  } else {
    Tracer tracer;
    std::vector<IterationLedger> ledgers;
    std::vector<Measurement> ms = measure(
        w, a.seconds, checks,
        {[&] { return run_iteration(w); },
         [&] {
           ledgers.emplace_back();
           return run_traced_iteration(w, tracer, ledgers.back());
         }});
    ledgers.erase(ledgers.begin());  // the untimed first iteration
    checks.expect(ms[1].digest == ms[0].digest,
                  "traced iterations reproduce the untraced digest");
    run_digest = ms[0].digest;
    LayerInputs in;
    in.seed = a.seed;
    in.nproc = nproc;
    in.untraced_wall_s = median(ms[0].wall_s);
    in.traced_wall_s = median(ms[1].wall_s);
    in.ledgers = std::move(ledgers);
    in.last = std::move(ms[1].last);
    metrics = layer_metrics(w, tracer, in, checks);
    if (!a.trace_file.empty()) tracer.write_chrome_json(a.trace_file, provenance);
    if (w.partitioned && nproc < 8) {
      std::cout << "partition: the >= 3x speedup target at 8 cores is "
                   "unverified here (nproc = "
                << nproc << ")\n";
    }
  }

  if (!a.expect_digest.empty()) {
    checks.expect(hex64(run_digest) == a.expect_digest,
                  "digest " + hex64(run_digest) + " == recorded " +
                      a.expect_digest + " (a model change re-records it)");
  }
  for (Metric& m : metrics) {
    if (m.name == "check_fail_frac") {
      m.value = static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted());
    }
  }
  std::cout << "digest " << w.name << " seed " << a.seed << ": "
            << hex64(run_digest) << '\n';
  print_result(checks, metrics, run_digest, provenance);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
