// End-to-end benchmark of the RPC stack and the KV store.
//
//   e2ebench --workload echo-small|echo-mixed|kv-commit --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//   e2ebench --selftest
//
// Prints human-readable diagnostics, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
// 1 when any reply, read-back or digest check failed.  README.md in
// this directory explains the workloads and every metric.
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/metrics.h"

namespace e2e {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Gen g(seed ^ (stream * 0xD1B54A32D192ED03ull));
  g.u64();
  return g.u64();
}

std::uint64_t Gen::geometric(double mean) {
  if (mean <= 1) return 1;
  const double p = 1.0 / mean;
  return 1 + static_cast<std::uint64_t>(std::floor(std::log1p(-unit()) /
                                                   std::log1p(-p)));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::array<double, 3> quartiles(std::vector<double> v) {
  std::array<double, 3> out{};
  if (v.size() < 2) return out;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (int i = 1; i <= 3; ++i) {
    // statistics.quantiles, method="exclusive": m = n + 1.
    const std::size_t j = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::floor(i * (n + 1) / 4)), 1,
        v.size() - 1);
    const double delta = i * (n + 1) - static_cast<double>(j) * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return out;
}

std::int64_t now_ns() { return tempo::common::monotonic_ns(); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double cpu_of(std::thread& th) {
  clockid_t id;
  timespec ts{};
  if (pthread_getcpuclockid(th.native_handle(), &id) != 0 ||
      clock_gettime(id, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

std::string result_json(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer"); run.py
// checks the printed names and units against it.
constexpr MetricName kEndToEnd[] = {
    {"calls_per_s", "1/s"},
    {"p50_us", "us"},
    {"cpu_us_per_call", "us"},
    {"setup_s", "s"},
};

constexpr MetricName kPerLayer[] = {
    {"client.encode_ns", "ns"},
    {"client.decode_ns", "ns"},
    {"client.send_ns", "ns"},
    {"client.wait_ns", "ns"},
    {"client.retransmits", "1/call"},
    {"client.stale_replies", "1/call"},
    {"net.wire_ns", "ns"},
    {"server.total_ns", "ns"},
    {"server.recv_ns", "ns"},
    {"server.decode_ns", "ns"},
    {"server.cache_lookup_ns", "ns"},
    {"server.execute_ns", "ns"},
    {"server.encode_ns", "ns"},
    {"server.flush_ns", "ns"},
    {"server.tier_share.jit", "ratio"},
    {"server.tier_share.plan", "ratio"},
    {"server.tier_share.generic", "ratio"},
    {"app.handler_ns", "ns"},
    {"rpc.dispatch_ns", "ns"},
    {"pe.marshal_ns.compiled", "ns"},
    {"pe.marshal_ns.plan", "ns"},
    {"pe.marshal_ns.generic", "ns"},
    {"marshal_share.compiled", "ratio"},
    {"marshal_share.plan", "ratio"},
    {"marshal_share.generic", "ratio"},
    {"core.fast_path_share", "ratio"},
    {"core.jit_share", "ratio"},
    {"core.cache_hits", "1/call"},
    {"core.hot_hits", "1/call"},
    {"core.cache_misses", "1/call"},
    {"core.evictions", "1/call"},
    {"rpc.udp_batch_size", "count"},
    {"rpc.reply_batch_size", "count"},
    {"rpc.overload_drops", "1/call"},
    {"rpc.reply_send_failures", "1/call"},
    {"rpc.write_stalls", "1/call"},
    {"rpc.work_steals", "1/call"},
    {"arena.hit_ratio", "ratio"},
    {"proc.ctx_switches_per_call", "1/call"},
    {"proc.client_cpu_us_per_call", "us"},
    {"proc.server_cpu_us_per_call", "us"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.late_max_us", "us"},
    {"kv.put_ns", "ns"},
    {"kv.get_ns", "ns"},
    {"kv.wal_commit_ns", "ns"},
    {"kv.wal_fsync_commit_ns", "ns"},
    {"kv.apply_ns", "ns"},
    {"kv.order_wait_ns", "ns"},
    {"wal.batched_share", "ratio"},
    {"kv.gc_ns", "ns"},
    {"kv.gets_per_s", "1/s"},
    {"kv.recovery_s", "s"},
    {"kv.recovery_records_per_s", "1/s"},
    {"repl.records_per_s", "1/s"},
    {"repl.lag_max", "count"},
    {"repl.catchup_ms", "ms"},
    {"repl.dup_skips", "count"},
    {"trace.stage_sum_ratio", "ratio"},
    {"trace.overhead", "ratio"},
    {"net.uring_enters_per_call", "1/call"},
    {"diag.uring_calls_per_s", "1/s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload echo-small|echo-mixed|kv-commit "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       e2ebench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v != "0";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.seconds <= 0) return usage();

  Outcome out;
  if (opt.workload == "echo-small" || opt.workload == "echo-mixed") {
    out = run_rpc_workload(opt);
  } else if (opt.workload == "kv-commit") {
    out = run_kv_workload(opt);
  } else {
    return usage();
  }

  // Keep exactly the contract's list for this mode, in its order.  A
  // per-layer metric whose layer the workload does not exercise reads 0
  // and is named here; a missing end-to-end metric is a benchmark bug.
  Outcome result = out;
  result.metrics.clear();
  std::string idle;
  auto pick = [&](const MetricName* list, std::size_t n) -> bool {
    for (std::size_t i = 0; i < n; ++i) {
      const Metric* found = nullptr;
      for (const Metric& m : out.metrics) {
        if (m.name == list[i].name) found = &m;
      }
      if (found == nullptr) {
        if (!opt.trace) {
          std::fprintf(stderr, "e2ebench: end-to-end metric %s missing\n",
                       list[i].name);
          return false;
        }
        idle += std::string(idle.empty() ? "" : " ") + list[i].name;
        result.add(list[i].name, 0, list[i].unit);
      } else {
        result.add(list[i].name, found->value, list[i].unit);
      }
    }
    return true;
  };
  const bool ok = opt.trace
                      ? pick(kPerLayer, std::size(kPerLayer))
                      : pick(kEndToEnd, std::size(kEndToEnd));
  if (!ok) return 4;
  if (!idle.empty()) {
    std::printf("not exercised by %s (reported as 0): %s\n",
                opt.workload.c_str(), idle.c_str());
  }
  std::printf("correct=%s attempted=%lld failed=%lld\n",
              result.correct() ? "yes" : "NO",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
