#include "trace.hpp"

#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Small per-thread ids for the trace's tid field.
int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

void Tracer::record(std::uint64_t id, const char* layer, const char* function,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t replication) {
  const Span s{layer, function, start, end, id, parent, replication,
               thread_index()};
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  f.precision(15);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata_json
    << ",\n\"traceEvents\": [";
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.function
      << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"ts\": "
      << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
      << ", \"pid\": 1, \"tid\": " << s.thread << ", \"args\": {\"layer\": \""
      << s.layer << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"replication\": " << s.replication << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
