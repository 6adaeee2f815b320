// Shared declarations of the repository benchmark binary.
//
// The binary runs one seeded workload against the library's public entry
// points (run_sweep, run_replication_partitioned, merge_replications) and
// reports host-time metrics. Everything it reads from the library's
// result types goes through view() in outputs.cpp, so a change to
// ReplicationOutput / PointResult / SideStats has one place to follow here.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace perfbench {

using hce::Rate;
using hce::experiment::DeploymentKind;
using hce::experiment::PointResult;
using hce::experiment::ReplicationOutput;
using hce::experiment::Scenario;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v`; 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Workloads (workloads.cpp) ---------------------------------------------

/// One benchmark workload: a scenario, the rates it runs at, and how an
/// iteration drives the library.
struct Workload {
  std::string name;
  Scenario scenario;
  std::vector<Rate> rates;
  /// true: one run_replication_partitioned per iteration (scenario.partitions
  /// shards, scenario.partition_workers threads); false: run_sweep over
  /// `rates` with `workers` threads.
  bool partitioned = false;
  int workers = 1;
};

/// Builds the named workload; every random input derives from `seed`.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, int nproc);

/// The knobs that define `w`, as one JSON object.
std::string knobs_json(const Workload& w);

/// What one iteration produced: the merged points, plus the
/// per-replication outputs where the iteration had them in hand.
struct Iteration {
  std::vector<PointResult> points;
  std::vector<ReplicationOutput> replications;
};

/// One untraced iteration through the library's public entry points.
Iteration run_iteration(const Workload& w);

// --- The one adapter for library outputs (outputs.cpp) ---------------------

/// One side of a replication or of a merged point, as the benchmark reads
/// it. Point views leave the replication-only fields at 0.
struct SideView {
  DeploymentKind kind = DeploymentKind::kEdge;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t redirects = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t pulls_issued = 0;
  std::uint64_t pulls_abandoned = 0;
  std::uint64_t request_sends = 0;
  std::uint64_t pull_sends = 0;
  std::uint64_t rented_server_intervals = 0;
  double mean = 0.0;  ///< points only
  double p50 = 0.0;   ///< points only
  double p99 = 0.0;   ///< points only
  // Replication-only fields.
  std::uint64_t pulls_completed = 0;
  std::uint64_t pull_retries = 0;
  std::uint64_t pull_link_drops = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pool_high_water = 0;
  /// The output's completion records (empty unless observe is on). Valid
  /// while the viewed ReplicationOutput lives.
  const hce::des::RecordColumns* records = nullptr;
};

struct OutputView {
  bool replication = false;  ///< built from a ReplicationOutput
  Rate rate = 0.0;           ///< points only
  std::uint64_t events = 0;  ///< replications only
  std::array<SideView, 2> side;  ///< [0] = scenario.side_a, [1] = side_b
};

OutputView view(const Scenario& sc, const ReplicationOutput& out);
OutputView view(const Scenario& sc, const PointResult& point);

/// Counts correctness checks; every one feeds check_fail_frac.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Conservation identities of one replication or point, per side:
/// lookups == hits + misses and misses == pulls issued; per replication
/// also offered == delivered + timeouts, pulls issued == completed +
/// abandoned and, on a cloud side, WAN request sends == offered + retries;
/// as lower bounds where work in flight at the warm-up reset may be
/// counted on one side only.
void check_identities(const Scenario& sc, const OutputView& v, Checks& checks);

/// FNV-1a digest over the hexfloat rendering of every point's simulated
/// outputs (means, p50/p99, counters).
std::uint64_t digest(const Scenario& sc, const std::vector<PointResult>& pts);

std::string hex64(std::uint64_t x);

}  // namespace perfbench
