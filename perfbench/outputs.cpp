// The one place the benchmark reads the library's result types, and the
// correctness checks and output digest built on top of it.
#include <cstdio>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

namespace {

SideView side_of(DeploymentKind kind, const hce::experiment::SideStats& s) {
  SideView v;
  v.kind = kind;
  v.offered = s.offered;
  v.delivered = s.samples;
  v.retries = s.retries;
  v.timeouts = s.timeouts;
  v.lookups = s.cache_lookups;
  v.hits = s.cache_hits;
  v.misses = s.cache_misses;
  v.pulls_issued = s.state_pulls;
  v.pulls_abandoned = s.pulls_abandoned;
  v.request_sends = s.cost.usage.wan.request_sends;
  v.pull_sends = s.cost.usage.wan.pull_request_sends;
  v.rented_server_intervals = s.cost.usage.rented_server_intervals;
  v.mean = s.mean;
  v.p50 = s.p50;
  v.p99 = s.p99;
  return v;
}

SideView side_of(DeploymentKind kind, const hce::cluster::ClientStats& c,
                 const hce::state::CacheStats& cache,
                 const hce::state::PullStats& pulls,
                 const hce::cost::Usage& usage, std::uint64_t dropped,
                 std::size_t pool_high_water,
                 const hce::des::RecordColumns& records) {
  SideView v;
  v.kind = kind;
  v.offered = c.offered;
  v.delivered = c.delivered;
  v.retries = c.retries;
  v.timeouts = c.timeouts;
  v.lookups = cache.lookups;
  v.hits = cache.hits;
  v.misses = cache.misses;
  v.pulls_issued = pulls.issued;
  v.pulls_abandoned = pulls.abandoned;
  v.pulls_completed = pulls.completed;
  v.pull_retries = pulls.retries;
  v.pull_link_drops = pulls.link_drops;
  v.request_sends = usage.wan.request_sends;
  v.pull_sends = usage.wan.pull_request_sends;
  v.rented_server_intervals = usage.rented_server_intervals;
  v.dropped = dropped;
  v.pool_high_water = pool_high_water;
  v.records = &records;
  return v;
}

}  // namespace

OutputView view(const Scenario& sc, const ReplicationOutput& out) {
  OutputView v;
  v.replication = true;
  v.events = out.events;
  v.side[0] = side_of(sc.side_a, out.edge_client, out.edge_cache,
                      out.edge_pulls, out.edge_usage, out.edge_dropped,
                      out.edge_pool_high_water, out.edge_records);
  v.side[1] = side_of(sc.side_b, out.cloud_client, out.cloud_cache,
                      out.cloud_pulls, out.cloud_usage, out.cloud_dropped,
                      out.cloud_pool_high_water, out.cloud_records);
  v.side[0].failovers = out.edge_failovers;
  v.side[0].redirects = out.edge_redirects;
  return v;
}

OutputView view(const Scenario& sc, const PointResult& point) {
  OutputView v;
  v.rate = point.rate_per_server;
  v.side[0] = side_of(sc.side_a, point.edge);
  v.side[1] = side_of(sc.side_b, point.cloud);
  v.side[0].failovers = point.edge_failovers;
  v.side[0].redirects = point.edge_redirects;
  return v;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  // Report the first few failures; the count carries the rest.
  if (++failed_ <= 5) std::cerr << "check failed: " << what << '\n';
}

void check_identities(const Scenario& sc, const OutputView& v,
                      Checks& checks) {
  for (std::size_t i = 0; i < v.side.size(); ++i) {
    const SideView& s = v.side[i];
    const std::string where = std::string(i == 0 ? "side_a" : "side_b") +
                              (v.replication ? " replication: " : " point: ");
    // x == lo, or lo <= x where the counters cannot tell a warm-up
    // straddler from a counted request.
    const auto check = [&](std::uint64_t lo, std::uint64_t x, bool exact,
                           const char* what) {
      checks.expect(exact ? x == lo : x >= lo,
                    where + what + (exact ? "" : " (lower bound)") + " (" +
                        std::to_string(lo) + " vs " + std::to_string(x) + ")");
    };
    check(s.hits + s.misses, s.lookups, true, "lookups == hits + misses");
    check(s.pulls_issued, s.misses, true, "misses == pulls issued");
    if (!v.replication) continue;
    // Counters restart at the warm-up reset, and whatever is in flight at
    // that instant (requests, pulls, their retries) may resolve on the
    // counted side only. The retry client counts the cohort offered after
    // the reset, so with retries on its identity is exact.
    check(s.offered, s.delivered + s.timeouts, sc.retry.enabled,
          "offered == delivered + timeouts");
    check(s.pulls_issued, s.pulls_completed + s.pulls_abandoned, false,
          "pulls issued == completed + abandoned");
    if (s.kind == DeploymentKind::kCloud) {
      // Hybrid sides also bill offload forwards as request sends and
      // edge-like sides send none, so this identity is the cloud's alone.
      check(s.offered + s.retries, s.request_sends, !sc.retry.enabled,
            "wan.request_sends == offered + retries");
    }
  }
}

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  /// Adds the bytes of `s` and a ';' terminator, so fields cannot run
  /// together.
  void add(const char* s) {
    for (;; ++s) {
      h ^= static_cast<unsigned char>(*s == '\0' ? ';' : *s);
      h *= 0x100000001b3ull;
      if (*s == '\0') return;
    }
  }
  void add(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    add(buf);
  }
  void add(std::uint64_t x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(x));
    add(buf);
  }
};

}  // namespace

std::uint64_t digest(const Scenario& sc, const std::vector<PointResult>& pts) {
  Fnv1a f;
  for (const PointResult& p : pts) {
    const OutputView v = view(sc, p);
    f.add(v.rate);
    for (const SideView& s : v.side) {
      for (double x : {s.mean, s.p50, s.p99}) f.add(x);
      for (std::uint64_t n :
           {s.delivered, s.offered, s.retries, s.timeouts, s.failovers,
            s.redirects, s.hits, s.misses, s.pulls_abandoned, s.request_sends,
            s.pull_sends, s.rented_server_intervals}) {
        f.add(n);
      }
    }
  }
  return f.h;
}

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(x));
  return buf;
}

}  // namespace perfbench
