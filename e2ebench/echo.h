// The echo workloads' inputs and the client's per-call checks, shared
// by rpc_workloads.cpp and the self-tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "core/stubspec.h"
#include "idl/types.h"
#include "net/transport.h"

namespace e2e {

inline constexpr std::uint32_t kEchoProg = 0x20000555;
inline constexpr std::uint32_t kEchoVers = 1;
inline constexpr std::uint32_t kEchoProc = 7;
inline constexpr std::uint32_t kEchoMaxArray = 2048;

tempo::idl::ProcDef echo_proc();

struct EchoSpec {
  std::string name;
  bool tcp = false;
  std::vector<std::uint32_t> sizes;  // shape index -> int-array length
  double mean_run = 0;               // mean calls per shape run (>1 shapes)
  double open_loop_rate = 0;         // offered calls/s, latency phase
};

// echo-small: UDP, n = 20.  echo-mixed: TCP, the paper's six sizes plus
// 26 drawn from the seed, one per equal-width stratum of [20, 2000] so
// the byte mix barely moves between seeds.
EchoSpec make_echo_spec(const std::string& workload, std::uint64_t seed);

struct CallSpec {
  std::uint32_t shape = 0;
  std::uint32_t tag = 0;  // payload word 0, unique-ish per call
};

// One client's call sequence: a shape is kept for a geometric run of
// calls (mean spec.mean_run), then another shape is drawn uniformly.
class RequestStream {
 public:
  RequestStream(const EchoSpec& spec, std::uint64_t seed, std::uint64_t stream);
  CallSpec next();
  std::int64_t calls() const { return calls_; }
  std::int64_t switches() const { return switches_; }

 private:
  std::uint32_t shapes_;
  double mean_run_;
  Gen gen_;
  std::uint32_t shape_ = 0;
  std::uint64_t left_ = 0;
  std::int64_t calls_ = 0;
  std::int64_t switches_ = -1;  // the first pick is not a switch
};

// Poisson arrivals: exponential gaps at `rate` per second.
class PoissonSchedule {
 public:
  PoissonSchedule(std::uint64_t seed, double rate)
      : gen_(seed), mean_ns_(1e9 / rate) {}
  std::int64_t next_gap_ns() {
    return static_cast<std::int64_t>(gen_.exponential(mean_ns_));
  }

 private:
  Gen gen_;
  double mean_ns_;
};

using IfacePtr = std::shared_ptr<const tempo::core::SpecializedInterface>;

// Per-thread encoder/verifier over the workload's client
// specializations.  Payload words are fixed per shape (drawn from the
// seed) except word 0, which carries the call's tag.
class EchoCodec {
 public:
  EchoCodec(const std::vector<IfacePtr>& ifaces, std::uint64_t seed);

  // Encodes the call into `out` (at least max_call_bytes()); returns its
  // length, 0 if the stub refused.
  std::size_t encode(const CallSpec& c, std::uint32_t xid, std::uint8_t* out);
  // True iff `reply` decodes through the shape's stub as an accepted
  // reply to `xid` whose array equals the request's.
  bool verify(const CallSpec& c, std::uint32_t xid, tempo::ByteSpan reply);

  std::size_t call_bytes(std::uint32_t shape) const;
  std::size_t reply_bytes(std::uint32_t shape) const;
  std::size_t max_call_bytes() const { return max_call_; }

 private:
  const std::vector<IfacePtr>& ifaces_;
  std::vector<std::vector<std::uint32_t>> words_;
  std::vector<std::uint32_t> scratch_;
  std::size_t max_call_ = 0;
};

std::vector<IfacePtr> build_client_ifaces(const EchoSpec& spec);

// One closed-loop UDP client (the capacity phase's) against `server`
// for `seconds`; for the self-tests.
struct LoopCounts {
  std::int64_t attempted = 0, verified = 0, failed = 0;
};
LoopCounts run_udp_client(const EchoSpec& spec,
                          const std::vector<IfacePtr>& ifaces,
                          std::uint64_t seed, const tempo::net::Addr& server,
                          double seconds);

}  // namespace e2e
