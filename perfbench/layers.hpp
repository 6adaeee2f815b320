// The traced run: iterations re-driven from outside with a span around each
// call into a layer's public functions, and the per-layer ledger derived
// from those spans, from the library's own counters and from replays of
// single layers at the workload's parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "des/simulation.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Host-time ledger of one traced iteration.
struct IterationLedger {
  struct Replication {
    double build_s = 0.0;    ///< run_replication_on call -> run_calendar start
    double drain_s = 0.0;    ///< inside Simulation::run()
    double collect_s = 0.0;  ///< run_calendar end -> return
    hce::des::Simulation::Stats des;
  };
  std::vector<Replication> replications;  ///< sweep workloads only
  std::vector<double> merge_s;            ///< merge_replications, per point
  std::vector<double> breakdown_s;        ///< obs::merge_breakdown, per point
  double partitioned_s = 0.0;             ///< run_replication_partitioned
};

/// One iteration of `w` with every layer call wrapped in a span. Produces
/// the same points as run_iteration (the caller checks the digests agree)
/// and keeps every replication output.
Iteration run_traced_iteration(const Workload& w, Tracer& tracer,
                               IterationLedger& ledger);

struct LayerInputs {
  std::uint64_t seed = 0;
  int nproc = 1;
  double untraced_wall_s = 0.0;  ///< median over the untraced iterations
  double traced_wall_s = 0.0;    ///< median over the traced iterations
  std::vector<IterationLedger> ledgers;
  Iteration last;  ///< the last traced iteration's outputs
};

/// Every per-layer metric, in BENCHMARK.json order. Layers the workload
/// bypasses report 0. Checks made along the way (the partitioned digest
/// across worker counts) go to `checks`.
std::vector<Metric> layer_metrics(const Workload& w, Tracer& tracer,
                                  const LayerInputs& in, Checks& checks);

}  // namespace perfbench
