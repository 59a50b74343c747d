// Shared pieces of the end-to-end benchmark: options, deterministic
// input generators, order statistics, CPU clocks and the metric report.
//
// The generators belong to the benchmark, not to the program: a change
// to the program's own Rng must never change the inputs it is fed.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // spans and scratch files go here
};

// ---- deterministic generators -------------------------------------------

// Mixes a run seed with a stream id so every thread, phase and table
// draws from its own reproducible sequence.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

// SplitMix64.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t u64() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u64() >> 32); }
  double unit() { return static_cast<double>(u64() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : u64() % n; }
  double exponential(double mean) { return -mean * std::log1p(-unit()); }
  // Number of trials up to and including the first success, mean `mean`.
  std::uint64_t geometric(double mean);

 private:
  std::uint64_t s_;
};

// ---- order statistics ----------------------------------------------------

// Linear interpolation between closest ranks (Hyndman-Fan type 7, what
// numpy.percentile does by default); q in [0, 1].  0 for an empty set.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
// The three cut points of Python's statistics.quantiles(v, n=4) (its
// default "exclusive" method).  Needs at least two values.
std::array<double, 3> quartiles(std::vector<double> v);

// ---- clocks --------------------------------------------------------------

std::int64_t now_ns();          // the program's monotonic clock
double process_cpu_s();         // user + sys of every thread (getrusage)
double cpu_of(std::thread& th);  // CPU time so far of a running thread
std::int64_t context_switches();  // voluntary + involuntary, whole process

// Increments a counter only its owning thread writes (others read it).
inline void bump(std::atomic<std::int64_t>& a) {
  a.store(a.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// ---- result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Whole-run checks that are not per operation (digests, replays);
  // false makes the run incorrect.
  bool books_balance = true;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  bool correct() const { return books_balance && failed == 0; }
};

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Outcome& o);

// Server-side stage times from the runtime's tracer.
struct ServerSummary {
  std::size_t records = 0;
  double stage_p50[tempo::common::kTraceStageCount] = {};
  double stage_sum_p50 = 0;   // sum of the stage medians
  double total_p50 = 0;       // median wire-receive-to-commit time
  double tier_share[4] = {};  // indexed by common::TraceTier
};
ServerSummary summarize(const std::vector<tempo::common::TraceRecord>& recs);
// Adds server.total_ns, the server.* stage medians and the tier split.
void add_server_metrics(Outcome& o, const ServerSummary& s);

inline double ratio_or_zero(double a, double b) { return b != 0 ? a / b : 0; }

Outcome run_rpc_workload(const Options& opt);
Outcome run_kv_workload(const Options& opt);
int run_selftest();

}  // namespace e2e
