#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>

#include "dist/zipf.hpp"
#include "experiment/partitioned.hpp"
#include "faults/fault.hpp"
#include "obs/breakdown.hpp"
#include "state/cache.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

template <typename F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Median host time of `f` over `n` calls.
template <typename F>
double median_time_s(int n, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) t.push_back(time_s(f));
  return median(std::move(t));
}

/// One sequential replication through detail::run_replication_on, with
/// spans for its build, its calendar drain and its collect phase. All
/// spans of the replication carry the replication span's id.
ReplicationOutput traced_replication(const Scenario& sc, Rate rate, int r,
                                     Tracer& tracer, std::uint64_t parent,
                                     IterationLedger::Replication& led) {
  hce::des::Simulation sim;
  const std::uint64_t id = tracer.next_id();
  const auto t_call = Clock::now();
  Clock::time_point t_run0{};
  Clock::time_point t_run1{};
  ReplicationOutput out = hce::experiment::detail::run_replication_on(
      sc, rate, r, sim, [&] {
        t_run0 = Clock::now();
        sim.run();
        t_run1 = Clock::now();
      });
  const auto t_ret = Clock::now();
  // A replication whose fault trace blacks out the horizon is never run.
  if (t_run0 == Clock::time_point{}) t_run0 = t_run1 = t_ret;
  tracer.record(tracer.next_id(), "experiment", "build", t_call, t_run0, id,
                id);
  tracer.record(tracer.next_id(), "des", "Simulation::run", t_run0, t_run1, id,
                id);
  tracer.record(tracer.next_id(), "experiment", "collect", t_run1, t_ret, id,
                id);
  tracer.record(id, "experiment", "run_replication_on", t_call, t_ret, parent,
                id);
  led.build_s = seconds_between(t_call, t_run0);
  led.drain_s = seconds_between(t_run0, t_run1);
  led.collect_s = seconds_between(t_run1, t_ret);
  led.des = sim.stats();
  return out;
}

/// run_sweep re-driven from outside: the same points over the same number
/// of workers, each point's replications run in order and merged by
/// merge_replications (bit-identical to run_point).
Iteration traced_sweep(const Workload& w, Tracer& tracer,
                       IterationLedger& ledger) {
  const Scenario& sc = w.scenario;
  const std::size_t n = w.rates.size();
  const auto reps = static_cast<std::size_t>(sc.replications);
  const std::uint64_t sweep_id = tracer.next_id();
  const auto t0 = Clock::now();

  std::vector<PointResult> points(n);
  std::vector<std::vector<ReplicationOutput>> outs(n);
  std::vector<std::vector<IterationLedger::Replication>> rep_led(
      n, std::vector<IterationLedger::Replication>(reps));
  std::vector<double> merge_s(n, 0.0);
  std::vector<double> breakdown_s(n, 0.0);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};

  const auto run_points = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        const Rate rate = w.rates[i];
        const std::uint64_t point_id = tracer.next_id();
        const auto p0 = Clock::now();
        for (std::size_t r = 0; r < reps; ++r) {
          outs[i].push_back(traced_replication(sc, rate, static_cast<int>(r),
                                               tracer, point_id,
                                               rep_led[i][r]));
        }
        const auto m0 = Clock::now();
        points[i] = hce::experiment::merge_replications(sc, rate, outs[i]);
        const auto m1 = Clock::now();
        tracer.record(tracer.next_id(), "experiment", "merge_replications", m0,
                      m1, point_id);
        merge_s[i] = seconds_between(m0, m1);
        if (sc.observe) {
          // Replays the breakdown merge over the point's records, per side.
          const auto b0 = Clock::now();
          for (std::size_t side = 0; side < 2; ++side) {
            std::vector<const hce::des::RecordColumns*> records;
            for (const ReplicationOutput& o : outs[i]) {
              records.push_back(view(sc, o).side[side].records);
            }
            (void)hce::obs::merge_breakdown(records);
          }
          const auto b1 = Clock::now();
          tracer.record(tracer.next_id(), "obs", "merge_breakdown", b0, b1,
                        point_id);
          breakdown_s[i] = seconds_between(b0, b1);
        }
        tracer.record(point_id, "experiment", "run_point", p0, Clock::now(),
                      sweep_id);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < w.workers; ++t) pool.emplace_back(run_points);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  tracer.record(sweep_id, "experiment", "run_sweep", t0, Clock::now(), 0);

  Iteration it;
  it.points = std::move(points);
  for (std::size_t i = 0; i < n; ++i) {
    for (ReplicationOutput& o : outs[i]) it.replications.push_back(std::move(o));
    for (const auto& l : rep_led[i]) ledger.replications.push_back(l);
  }
  ledger.merge_s = std::move(merge_s);
  if (sc.observe) ledger.breakdown_s = std::move(breakdown_s);
  return it;
}

Iteration traced_partitioned(const Workload& w, Tracer& tracer,
                             IterationLedger& ledger) {
  const Scenario& sc = w.scenario;
  const Rate rate = w.rates.front();
  const std::uint64_t root = tracer.next_id();
  const std::uint64_t rep_id = tracer.next_id();
  const auto t0 = Clock::now();
  Iteration it;
  it.replications.push_back(
      hce::experiment::run_replication_partitioned(sc, rate, 0));
  const auto t1 = Clock::now();
  it.points.push_back(
      hce::experiment::merge_replications(sc, rate, it.replications));
  const auto t2 = Clock::now();
  tracer.record(rep_id, "partition", "run_replication_partitioned", t0, t1,
                root, rep_id);
  tracer.record(tracer.next_id(), "experiment", "merge_replications", t1, t2,
                root, rep_id);
  tracer.record(root, "experiment", "iteration", t0, t2, 0, rep_id);
  ledger.partitioned_s = seconds_between(t0, t1);
  ledger.merge_s = {seconds_between(t1, t2)};
  return it;
}

/// Hold-model replay of the bare calendar: `pending` events in flight,
/// each one rescheduling itself with an exponential delay, until a fixed
/// budget has fired. Separates heap cost at a given depth from the cost of
/// the handlers a workload runs.
double calendar_ns_per_event(std::size_t pending, std::uint64_t seed) {
  struct Hold {
    hce::des::Simulation* sim;
    hce::Rng* rng;
    std::uint64_t* budget;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      sim->schedule_in(-std::log1p(-rng->uniform01()), *this);
    }
  };
  hce::des::Simulation sim;
  hce::Rng rng = hce::Rng(seed).stream("perfbench.calendar");
  std::uint64_t budget = 2'000'000;
  pending = std::max<std::size_t>(pending, 1);
  sim.reserve(pending + 1);
  for (std::size_t i = 0; i < pending; ++i) {
    sim.schedule_in(-std::log1p(-rng.uniform01()), Hold{&sim, &rng, &budget});
  }
  const double t = time_s([&] { sim.run(); });
  return t / static_cast<double>(sim.stats().fired) * 1e9;
}

/// The metric table, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& metric_table() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"des.events", "count"},
      {"des.peak_pending", "count"},
      {"des.cancel_frac", "ratio"},
      {"des.drain_ns_per_event", "ns"},
      {"des.calendar_ns_per_event", "ns"},
      {"experiment.build_ms", "ms"},
      {"experiment.collect_ms", "ms"},
      {"experiment.merge_ms", "ms"},
      {"experiment.sweep_efficiency", "ratio"},
      {"partition.ns_per_event", "ns"},
      {"partition.worker_speedup", "ratio"},
      {"partition.events_per_s.w1", "1/s"},
      {"partition.events_per_s.w2", "1/s"},
      {"partition.events_per_s.w3", "1/s"},
      {"partition.events_per_s.w4", "1/s"},
      {"cluster.offered.side_a", "count"},
      {"cluster.offered.side_b", "count"},
      {"cluster.delivered.side_a", "count"},
      {"cluster.delivered.side_b", "count"},
      {"cluster.retry_frac.side_a", "ratio"},
      {"cluster.retry_frac.side_b", "ratio"},
      {"cluster.timeouts.side_a", "count"},
      {"cluster.timeouts.side_b", "count"},
      {"cluster.failovers.side_a", "count"},
      {"cluster.failovers.side_b", "count"},
      {"cluster.dropped.side_a", "count"},
      {"cluster.dropped.side_b", "count"},
      {"cluster.pool_high_water.side_a", "count"},
      {"cluster.pool_high_water.side_b", "count"},
      {"dist.zipf_ns_per_draw", "ns"},
      {"dist.zipf_build_ms", "ms"},
      {"state.lookups", "count"},
      {"state.hit_rate", "ratio"},
      {"state.pulls", "count"},
      {"state.pull_retries", "count"},
      {"state.pulls_abandoned", "count"},
      {"state.link_drops", "count"},
      {"state.cache_ns_per_op", "ns"},
      {"faults.generate_ms", "ms"},
      {"faults.outages", "count"},
      {"faults.link_windows", "count"},
      {"obs.records", "count"},
      {"obs.merge_breakdown_ms", "ms"},
      {"cost.request_sends", "count"},
      {"cost.pull_sends", "count"},
      {"autoscale.rented_server_intervals", "count"},
      {"obs.marginal_ns_per_req", "ns"},
      {"state.marginal_ns_per_req", "ns"},
      {"faults.marginal_ns_per_req", "ns"},
      {"cluster.retry_marginal_ns_per_req", "ns"},
      {"autoscale.marginal_ns_per_req", "ns"},
      {"tracing_overhead", "s"},
      {"check_fail_frac", "ratio"},
  };
  return table;
}

/// Median host time of one replication per scenario variant, interleaved
/// so drift on the machine spreads over every variant alike.
std::vector<double> variant_times(const std::vector<Scenario>& variants,
                                  Rate rate, int rounds) {
  std::vector<std::vector<double>> t(variants.size());
  for (int k = 0; k < rounds; ++k) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      t[v].push_back(time_s(
          [&] { (void)hce::experiment::run_replication(variants[v], rate, 0); }));
    }
  }
  std::vector<double> med;
  for (auto& x : t) med.push_back(median(std::move(x)));
  return med;
}

std::uint64_t offered_both_sides(const Scenario& sc, Rate rate) {
  const ReplicationOutput out = hce::experiment::run_replication(sc, rate, 0);
  const OutputView v = view(sc, out);
  return v.side[0].offered + v.side[1].offered;
}

}  // namespace

Iteration run_traced_iteration(const Workload& w, Tracer& tracer,
                               IterationLedger& ledger) {
  return w.partitioned ? traced_partitioned(w, tracer, ledger)
                       : traced_sweep(w, tracer, ledger);
}

std::vector<Metric> layer_metrics(const Workload& w, Tracer& tracer,
                                  const LayerInputs& in, Checks& checks) {
  const Scenario& sc = w.scenario;
  std::map<std::string, double> m;
  for (const auto& [name, unit] : metric_table()) m[name] = 0.0;
  const auto set = [&m](const std::string& name, double value) {
    if (m.count(name) == 0) throw std::logic_error("unlisted metric " + name);
    m[name] = value;
  };

  std::vector<OutputView> reps;
  for (const ReplicationOutput& o : in.last.replications) {
    reps.push_back(view(sc, o));
  }

  // --- des and the build/collect split ----------------------------------
  // The partitioned engine keeps its calendars inside; the city's des.*
  // and build/collect come from one P=1 replication of the same scenario.
  std::vector<IterationLedger> des_ledgers = in.ledgers;
  if (w.partitioned) {
    Scenario p1 = sc;
    p1.partitions = 1;
    IterationLedger probe;
    probe.replications.resize(1);
    const ReplicationOutput out = traced_replication(
        p1, w.rates.front(), 0, tracer, 0, probe.replications.front());
    check_identities(p1, view(p1, out), checks);
    des_ledgers = {probe};
  }
  {
    const auto& last = des_ledgers.back().replications;
    std::uint64_t fired = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::size_t peak = 0;
    for (const auto& r : last) {
      fired += r.des.fired;
      scheduled += r.des.scheduled;
      cancelled += r.des.cancelled;
      peak = std::max(peak, r.des.peak_size);
    }
    set("des.events", static_cast<double>(fired));
    set("des.peak_pending", static_cast<double>(peak));
    set("des.cancel_frac", scheduled > 0 ? static_cast<double>(cancelled) /
                                               static_cast<double>(scheduled)
                                         : 0.0);
    set("des.calendar_ns_per_event", calendar_ns_per_event(peak, in.seed));
    std::vector<double> drain;
    std::vector<double> build;
    std::vector<double> collect;
    for (const IterationLedger& l : des_ledgers) {
      double d = 0.0;
      std::uint64_t e = 0;
      std::vector<double> b;
      std::vector<double> c;
      for (const auto& r : l.replications) {
        d += r.drain_s;
        e += r.des.fired;
        b.push_back(r.build_s);
        c.push_back(r.collect_s);
      }
      if (e > 0) drain.push_back(d / static_cast<double>(e) * 1e9);
      build.push_back(mean(b) * 1e3);
      collect.push_back(mean(c) * 1e3);
    }
    set("des.drain_ns_per_event", median(drain));
    set("experiment.build_ms", median(build));
    set("experiment.collect_ms", median(collect));
  }

  // --- experiment: merge and the sweep pool -----------------------------
  {
    std::vector<double> merge;
    std::vector<double> breakdown;
    for (const IterationLedger& l : in.ledgers) {
      merge.push_back(mean(l.merge_s) * 1e3);
      if (!l.breakdown_s.empty()) breakdown.push_back(mean(l.breakdown_s) * 1e3);
    }
    set("experiment.merge_ms", median(merge));
    set("obs.merge_breakdown_ms", median(breakdown));
  }
  if (!w.partitioned) {
    // Sum of each point's run_point time run alone, over the pool's
    // capacity during one untraced run_sweep.
    double sequential = 0.0;
    for (Rate rate : w.rates) {
      sequential +=
          time_s([&] { (void)hce::experiment::run_point(sc, rate); });
    }
    set("experiment.sweep_efficiency",
        sequential / (static_cast<double>(w.workers) * in.untraced_wall_s));
  }

  // --- partition: cost per event and the worker curve at fixed P --------
  if (w.partitioned) {
    const Rate rate = w.rates.front();
    std::vector<double> wall;
    for (const IterationLedger& l : in.ledgers) wall.push_back(l.partitioned_s);
    const double events = static_cast<double>(reps.front().events);
    set("partition.ns_per_event", median(wall) / events * 1e9);
    const std::uint64_t expected = digest(sc, in.last.points);
    const int max_workers = std::min(4, in.nproc);
    double t1 = 0.0;
    double tmax = 0.0;
    for (int n = 1; n <= max_workers; ++n) {
      Scenario s = sc;
      s.partition_workers = n;
      std::vector<ReplicationOutput> out(1);
      const double t = time_s([&] {
        out[0] = hce::experiment::run_replication_partitioned(s, rate, 0);
      });
      checks.expect(digest(sc, {hce::experiment::merge_replications(
                                   s, rate, out)}) == expected,
                    "partitioned digest identical at " + std::to_string(n) +
                        " and " + std::to_string(sc.partition_workers) +
                        " workers");
      set("partition.events_per_s.w" + std::to_string(n),
          static_cast<double>(view(s, out[0]).events) / t);
      if (n == 1) t1 = t;
      tmax = t;
    }
    set("partition.worker_speedup", t1 / tmax);
  }

  // --- cluster, state, obs, cost and autoscale counts -------------------
  {
    std::uint64_t lookups = 0, hits = 0, pulls = 0, pull_retries = 0,
                  abandoned = 0, link_drops = 0, records = 0,
                  request_sends = 0, pull_sends = 0, rented = 0;
    for (std::size_t side = 0; side < 2; ++side) {
      const std::string suffix = side == 0 ? ".side_a" : ".side_b";
      std::uint64_t offered = 0, delivered = 0, retries = 0, timeouts = 0,
                    failovers = 0, dropped = 0, pool = 0;
      for (const OutputView& v : reps) {
        const SideView& s = v.side[side];
        offered += s.offered;
        delivered += s.delivered;
        retries += s.retries;
        timeouts += s.timeouts;
        failovers += s.failovers;
        dropped += s.dropped;
        pool = std::max(pool, s.pool_high_water);
        lookups += s.lookups;
        hits += s.hits;
        pulls += s.pulls_issued;
        pull_retries += s.pull_retries;
        abandoned += s.pulls_abandoned;
        link_drops += s.pull_link_drops;
        records += s.records->size();
        request_sends += s.request_sends;
        pull_sends += s.pull_sends;
        rented += s.rented_server_intervals;
      }
      set("cluster.offered" + suffix, static_cast<double>(offered));
      set("cluster.delivered" + suffix, static_cast<double>(delivered));
      set("cluster.retry_frac" + suffix,
          offered > 0 ? static_cast<double>(retries) /
                            static_cast<double>(offered)
                      : 0.0);
      set("cluster.timeouts" + suffix, static_cast<double>(timeouts));
      set("cluster.failovers" + suffix, static_cast<double>(failovers));
      set("cluster.dropped" + suffix, static_cast<double>(dropped));
      set("cluster.pool_high_water" + suffix, static_cast<double>(pool));
    }
    set("state.lookups", static_cast<double>(lookups));
    set("state.hit_rate", lookups > 0 ? static_cast<double>(hits) /
                                            static_cast<double>(lookups)
                                      : 0.0);
    set("state.pulls", static_cast<double>(pulls));
    set("state.pull_retries", static_cast<double>(pull_retries));
    set("state.pulls_abandoned", static_cast<double>(abandoned));
    set("state.link_drops", static_cast<double>(link_drops));
    set("obs.records", static_cast<double>(records));
    set("cost.request_sends", static_cast<double>(request_sends));
    set("cost.pull_sends", static_cast<double>(pull_sends));
    set("autoscale.rented_server_intervals", static_cast<double>(rented));
  }

  // --- dist and state: replays at the workload's key space --------------
  if (sc.state.enabled) {
    const auto n = sc.state.key_space;
    const double theta = sc.state.zipf_theta;
    set("dist.zipf_build_ms",
        median_time_s(9, [&] { (void)hce::dist::ZipfSampler(n, theta); }) *
            1e3);
    const hce::dist::ZipfSampler zipf(n, theta);
    hce::Rng rng = hce::Rng(in.seed).stream("perfbench.keys");
    std::vector<std::uint64_t> keys(2'000'000);
    const double draw_s = time_s([&] {
      for (std::uint64_t& k : keys) k = zipf.key(rng);
    });
    set("dist.zipf_ns_per_draw",
        draw_s / static_cast<double>(keys.size()) * 1e9);
    hce::state::EdgeCache cache(sc.state.cache_capacity, sc.state.admission);
    const double cache_s = time_s([&] {
      for (std::uint64_t k : keys) {
        if (!cache.lookup(k).valid()) cache.insert(k);
      }
    });
    set("state.cache_ns_per_op",
        cache_s / static_cast<double>(keys.size()) * 1e9);
    const hce::state::CacheStats& cs = cache.stats();
    checks.expect(cs.lookups == cs.hits + cs.misses &&
                      cs.lookups == keys.size(),
                  "cache replay: lookups == hits + misses");
  }

  // --- faults: the traces the runner draws, one per replication ---------
  if (sc.faults.any()) {
    const double horizon = sc.warmup + sc.duration;
    // The runner's substream for replication r's fault trace.
    const auto trace_rng = [&](int r) {
      return hce::Rng(sc.seed)
          .stream("replication", static_cast<std::uint64_t>(r))
          .stream("faults");
    };
    set("faults.generate_ms", median_time_s(9, [&] {
          (void)hce::faults::FaultTrace::generate(sc.faults, sc.num_sites,
                                                  horizon, trace_rng(0));
        }) * 1e3);
    std::uint64_t outages = 0;
    std::uint64_t windows = 0;
    for (int r = 0; r < sc.replications; ++r) {
      const auto trace = hce::faults::FaultTrace::generate(
          sc.faults, sc.num_sites, horizon, trace_rng(r));
      for (const auto& o : trace.site_outages) outages += o.size();
      for (const auto& l : trace.site_link_events) windows += l.size();
      windows += trace.cloud_link_events.size();
    }
    set("faults.outages", static_cast<double>(outages));
    set("faults.link_windows", static_cast<double>(windows));
  }

  // --- marginal ledger: one fixed replication, one layer off at a time ---
  if (sc.observe && sc.state.enabled && sc.faults.any() && sc.retry.enabled) {
    const Rate rate = w.rates[w.rates.size() / 2];
    std::vector<Scenario> v(5, sc);
    v[1].observe = false;
    v[2].state = {};
    v[3].faults = {};
    v[4].faults = {};
    v[4].retry.enabled = false;
    const std::vector<double> t = variant_times(v, rate, 7);
    const double per_req =
        1e9 / static_cast<double>(offered_both_sides(sc, rate));
    set("obs.marginal_ns_per_req", (t[0] - t[1]) * per_req);
    set("state.marginal_ns_per_req", (t[0] - t[2]) * per_req);
    set("faults.marginal_ns_per_req", (t[0] - t[3]) * per_req);
    set("cluster.retry_marginal_ns_per_req", (t[3] - t[4]) * per_req);
  }
  if (sc.side_a == DeploymentKind::kElastic) {
    const Rate rate = w.rates[w.rates.size() / 2];
    std::vector<Scenario> v(2, sc);
    v[1].side_a = DeploymentKind::kEdge;
    const std::vector<double> t = variant_times(v, rate, 7);
    set("autoscale.marginal_ns_per_req",
        (t[0] - t[1]) * 1e9 /
            static_cast<double>(offered_both_sides(sc, rate)));
  }

  set("tracing_overhead", in.traced_wall_s - in.untraced_wall_s);

  std::vector<Metric> out;
  for (const auto& [name, unit] : metric_table()) {
    out.push_back({name, unit, m[name]});
  }
  return out;
}

}  // namespace perfbench
