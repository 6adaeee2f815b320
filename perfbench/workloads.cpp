// The four benchmark workloads. Each keeps a scenario regime the repository
// already reproduces; why each one is in the set is recorded in
// BENCHMARK.json and next to its definition below.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "dist/distribution.hpp"
#include "experiment/partitioned.hpp"
#include "support/rng.hpp"
#include "workload/azure.hpp"
#include "workload/spatial.hpp"

namespace perfbench {

namespace {

/// Site popularity of the 1000-site city drill (bench_city_scale, same
/// synthesis seeds): the spatial lognormal mean-load field times the
/// AzureSynth replay's function->app->site skew. Fixed, so every workload
/// seed runs the same city, whose hottest site carries ~210x the balanced
/// share; the seed drives the simulation's own streams.
std::vector<double> city_site_weights(int sites) {
  hce::workload::SpatialSynthConfig scfg;
  scfg.grid_width = 40;
  scfg.grid_height = (sites + scfg.grid_width - 1) / scfg.grid_width;
  const auto field = hce::workload::SpatialSynth(scfg).generate(hce::Rng(7));

  hce::workload::AzureSynthConfig acfg;
  acfg.num_sites = sites;
  acfg.num_functions = 4 * sites;
  const auto azure_w =
      hce::workload::AzureSynth(acfg).site_weights(hce::Rng(11));

  std::vector<double> w(static_cast<std::size_t>(sites), 0.0);
  for (std::size_t s = 0; s < w.size(); ++s) {
    double mean = 0.0;
    for (const auto& bin : field.loads) mean += bin[s];
    w[s] = mean / static_cast<double>(field.num_bins()) * azure_w[s];
  }
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  for (double& x : w) x /= total;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int nproc) {
  Workload w;
  w.name = name;
  w.workers = nproc;
  Scenario& sc = w.scenario;
  if (name == "fig4_sweep") {
    // The paper's headline figure: 5 sites x 1 server, 54 ms cloud,
    // stateless and fault-free. Time is event drain plus the merge sort;
    // state/faults/obs/partition/autoscale are bypassed.
    sc = Scenario::distant_cloud();
    w.rates = hce::experiment::paper_rate_axis();
  } else if (name == "city_partitioned") {
    // 1000 single-server sites with skewed popularity, one long
    // replication on 4 partitions: deep per-shard calendars, mailboxes
    // and windowing. The only workload for the partitioned engine. One
    // worker drives the partitions: on a shared 4-vCPU host more workers
    // spin-wait at every window, were no faster than one, and swung the
    // wall time 0.74-2.47 s between runs. The traced run measures the
    // worker curve, and every run checks the digest at min(P, nproc).
    sc = Scenario::typical_cloud();
    sc.name = "city";
    sc.num_sites = 1000;
    sc.servers_per_site = 1;
    sc.site_weights = city_site_weights(sc.num_sites);
    sc.warmup = 5.0;
    sc.duration = 30.0;
    sc.replications = 1;
    sc.partitions = 4;
    sc.partition_workers = 1;
    w.partitioned = true;
    w.workers = sc.partition_workers;
    w.rates = {6.0};
  } else if (name == "stateful_faulted") {
    // Zipf state over a faulty WAN with retries and observation on:
    // cancel-heavy calendar use, parked requests, cache reads and
    // admissions, pulls, sampler and breakdown merge, WAN cost counters.
    sc = Scenario::typical_cloud();
    sc.state.enabled = true;
    sc.state.key_space = 4096;
    sc.state.zipf_theta = 0.9;
    sc.state.cache_capacity = 512;
    sc.state.pull_transfer = hce::dist::deterministic(0.015);
    sc.faults.edge_site.enabled = true;
    sc.faults.edge_link.enabled = true;
    sc.faults.edge_link.partition_fraction = 0.25;
    sc.faults.cloud_link.enabled = true;
    sc.faults.cloud_link.partition_fraction = 0.25;
    sc.retry.enabled = true;
    sc.retry.timeout = 2.0;
    sc.observe = true;
    w.rates = {1.5, 2.5, 3.0, 3.5};
  } else if (name == "elastic_hybrid") {
    // The autoscaled fleet (retention rental) against threshold offload,
    // under edge-site crashes with retry and failover, at rates below and
    // past the fleet's scale-out point (rate / (mu * target) > 1, i.e.
    // 5.2 req/s). At the default 0.7 target the fleet runs hot enough that
    // a crash sets off retry storms whose size varies 2x between seeds.
    sc = Scenario::typical_cloud();
    sc.side_a = DeploymentKind::kElastic;
    sc.elastic_rental = Scenario::RentalPolicy::kRetention;
    sc.elastic_target_util = 0.4;
    sc.side_b = DeploymentKind::kHybrid;
    sc.faults.edge_site.enabled = true;
    sc.retry.enabled = true;
    w.rates = {3.0, 5.0, 10.0, 12.0};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  sc.seed = seed;
  if (!w.partitioned) {
    w.workers = std::max(
        1, std::min(nproc, static_cast<int>(w.rates.size())));
  }
  return w;
}

std::string knobs_json(const Workload& w) {
  const Scenario& sc = w.scenario;
  std::ostringstream o;
  o.precision(17);
  o << "{\"scenario\": \"" << sc.name << "\", \"side_a\": \""
    << hce::experiment::to_string(sc.side_a) << "\", \"side_b\": \""
    << hce::experiment::to_string(sc.side_b)
    << "\", \"num_sites\": " << sc.num_sites
    << ", \"servers_per_site\": " << sc.servers_per_site
    << ", \"edge_rtt_s\": " << sc.edge_rtt << ", \"cloud_rtt_s\": "
    << sc.cloud_rtt << ", \"service_cov\": " << sc.service_cov
    << ", \"hottest_site_vs_balanced\": "
    << (sc.site_weights.empty()
            ? 1.0
            : *std::max_element(sc.site_weights.begin(), sc.site_weights.end()) *
                  sc.num_sites)
    << ", \"warmup_s\": " << sc.warmup << ", \"duration_s\": " << sc.duration
    << ", \"replications\": " << sc.replications << ", \"rates\": [";
  for (std::size_t i = 0; i < w.rates.size(); ++i) {
    o << (i ? ", " : "") << w.rates[i];
  }
  o << "], \"entry_point\": \""
    << (w.partitioned ? "run_replication_partitioned" : "run_sweep")
    << "\", \"workers\": " << w.workers
    << ", \"partitions\": " << sc.partitions
    << ", \"state\": " << (sc.state.enabled ? "true" : "false");
  if (sc.state.enabled) {
    o << ", \"key_space\": " << sc.state.key_space
      << ", \"zipf_theta\": " << sc.state.zipf_theta
      << ", \"cache_capacity\": " << sc.state.cache_capacity;
  }
  if (sc.side_a == DeploymentKind::kElastic ||
      sc.side_b == DeploymentKind::kElastic) {
    o << ", \"elastic_target_util\": " << sc.elastic_target_util;
  }
  o << ", \"site_crashes\": " << (sc.faults.edge_site.enabled ? "true" : "false")
    << ", \"edge_link_faults\": " << (sc.faults.edge_link.enabled ? "true" : "false")
    << ", \"cloud_link_faults\": " << (sc.faults.cloud_link.enabled ? "true" : "false")
    << ", \"retry\": " << (sc.retry.enabled ? "true" : "false")
    << ", \"observe\": " << (sc.observe ? "true" : "false") << "}";
  return o.str();
}

Iteration run_iteration(const Workload& w) {
  Iteration it;
  if (!w.partitioned) {
    it.points = hce::experiment::run_sweep(w.scenario, w.rates, w.workers);
    return it;
  }
  it.replications.push_back(hce::experiment::run_replication_partitioned(
      w.scenario, w.rates.front(), 0));
  it.points.push_back(hce::experiment::merge_replications(
      w.scenario, w.rates.front(), it.replications));
  return it;
}

}  // namespace perfbench
