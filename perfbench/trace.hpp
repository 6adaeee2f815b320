// In-memory span recorder for the traced run. Spans are taken around the
// benchmark's own calls into each layer's public functions, kept in memory,
// and written out once as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* layer;
    const char* function;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;       ///< 0 = root
    std::uint64_t replication;  ///< shared by every span of one replication
    int thread;
  };

  /// A fresh span id. Take it when the span starts, so that children can
  /// name it as their parent before it is recorded.
  std::uint64_t next_id() { return next_id_.fetch_add(1); }

  /// Records a finished span. Thread-safe.
  void record(std::uint64_t id, const char* layer, const char* function,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t parent, std::uint64_t replication = 0);

  /// Writes {"traceEvents": [...], "otherData": <metadata_json>}.
  void write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench
