// Self-tests of the benchmark's own code (e2ebench --selftest):
//   * quantile and quartile math on known samples;
//   * a deliberately corrupted reply is counted as a failure, both by
//     the reply check and by a live closed-loop client;
//   * the same seed reproduces the same request stream and schedule.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/service.h"
#include "core/spec_cache.h"
#include "echo.h"
#include "net/udp.h"
#include "rpc/svc.h"

namespace e2e {

using namespace tempo;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "pass" : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_order_statistics() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  expect(near(median(ten), 5.5), "median of 1..10 is 5.5");
  expect(near(percentile(ten, 0.9), 9.1), "type-7 p90 of 1..10 is 9.1");
  expect(near(percentile(ten, 0), 1) && near(percentile(ten, 1), 10),
         "p0 and p100 are the extremes");
  // Reference values from Python: statistics.quantiles(v, n=4).
  const auto q = quartiles(ten);
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const auto q4 = quartiles({4, 1, 3, 2});
  expect(near(q4[0], 1.25) && near(q4[1], 2.5) && near(q4[2], 3.75),
         "quartiles of 1..4 are 1.25, 2.5, 3.75");
  const auto q3 = quartiles({7, 1, 3});
  expect(near(q3[0], 1) && near(q3[1], 3) && near(q3[2], 7),
         "quartiles of {1, 3, 7} are 1, 3, 7");
  expect(median({}) == 0, "median of nothing is 0");
}

// Registry serving the echo procedure as the benchmark's server does.
struct EchoRegistry {
  core::SpecCache cache{16};
  rpc::SvcRegistry reg;
  core::CachedSpecService svc{cache, echo_proc(), kEchoProg, kEchoVers,
                              [](std::span<const std::uint32_t>,
                                 std::span<const std::uint32_t> args,
                                 std::span<std::uint32_t> results) {
                                std::copy(args.begin(), args.end(),
                                          results.begin());
                                return true;
                              }};
  EchoRegistry() { svc.install(reg); }
};

void test_reply_check() {
  const EchoSpec spec = make_echo_spec("echo-mixed", 7);
  const std::vector<IfacePtr> ifaces = build_client_ifaces(spec);
  EchoCodec codec(ifaces, 7);
  EchoRegistry server;
  const CallSpec call{3, 0xC0FFEE};
  Bytes req(codec.max_call_bytes());
  const std::size_t len = codec.encode(call, 99, req.data());
  Bytes reply(rpc::reply_capacity(len));
  const std::size_t n = server.reg.handle_request(ByteSpan(req.data(), len), reply);
  reply.resize(n);
  expect(n == codec.reply_bytes(call.shape), "reply has the shape's length");
  expect(codec.verify(call, 99, reply), "an intact reply verifies");
  Bytes bad = reply;
  bad[bad.size() - 1] ^= 0x01;
  expect(!codec.verify(call, 99, bad), "a flipped payload bit fails");
  expect(!codec.verify(CallSpec{3, 0xC0FFEF}, 99, reply),
         "a reply to another tag fails");
  expect(!codec.verify(call, 98, reply), "a reply to another xid fails");
  expect(!codec.verify(call, 99, ByteSpan(reply.data(), reply.size() - 4)),
         "a truncated reply fails");
}

// A live client against a responder that corrupts every 7th reply:
// exactly those calls must count as failed, the rest as verified.
void test_corrupt_replies_counted() {
  const EchoSpec spec = make_echo_spec("echo-small", 3);
  const std::vector<IfacePtr> ifaces = build_client_ifaces(spec);
  EchoRegistry server;
  net::UdpSocket sock(0);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> served{0}, corrupted{0};
  std::thread responder([&] {
    Bytes req(65536), reply(65536);
    while (!stop.load()) {
      net::Addr from;
      auto r = sock.recv_from(&from, MutableByteSpan(req), 20);
      if (!r.is_ok()) continue;
      const std::size_t n =
          server.reg.handle_request(ByteSpan(req.data(), *r), reply);
      if (++served % 7 == 0) {
        reply[n - 1] ^= 0x40;
        ++corrupted;
      }
      if (!sock.send_to(from, ByteSpan(reply.data(), n)).is_ok()) break;
    }
  });
  const LoopCounts c = run_udp_client(spec, ifaces, 3, sock.local_addr(), 0.3);
  stop = true;
  responder.join();
  std::printf("      %lld attempted, %lld verified, %lld failed; responder "
              "corrupted %lld of %lld\n",
              static_cast<long long>(c.attempted), static_cast<long long>(c.verified),
              static_cast<long long>(c.failed), static_cast<long long>(corrupted.load()),
              static_cast<long long>(served.load()));
  expect(c.attempted > 100, "the client made calls");
  expect(c.failed == corrupted.load() && c.failed > 0,
         "every corrupted reply counts as a failure");
  expect(c.verified + c.failed == c.attempted, "every call is accounted for");
}

void test_seed_reproduces_inputs() {
  const EchoSpec a = make_echo_spec("echo-mixed", 42);
  const EchoSpec b = make_echo_spec("echo-mixed", 42);
  const EchoSpec c = make_echo_spec("echo-mixed", 43);
  expect(a.sizes == b.sizes && a.sizes != c.sizes,
         "shape sizes follow the seed");
  std::vector<std::uint32_t> sorted = a.sizes;
  std::sort(sorted.begin(), sorted.end());
  expect(sorted.size() == 32 &&
             std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
         "32 distinct shapes");

  auto stream = [](const EchoSpec& s, std::uint64_t seed) {
    RequestStream rs(s, seed, 10);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 20000; ++i) {
      const CallSpec c = rs.next();
      out.push_back((std::uint64_t{c.shape} << 32) | c.tag);
    }
    return std::make_pair(out, rs.switches());
  };
  const auto s1 = stream(a, 42), s2 = stream(b, 42), s3 = stream(c, 43);
  expect(s1 == s2, "same seed, same request stream");
  expect(s1.first != s3.first, "another seed, another request stream");
  const double share = static_cast<double>(s1.second) / 20000;
  expect(share > 0.02 && share < 0.045, "about 1 in 32 calls switches shape");

  auto schedule = [](std::uint64_t seed) {
    PoissonSchedule ps(stream_seed(seed, 120), 20000);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 20000; ++i) out.push_back(ps.next_gap_ns());
    return out;
  };
  const auto g1 = schedule(42), g2 = schedule(42), g3 = schedule(43);
  double mean = 0;
  for (const std::int64_t g : g1) mean += static_cast<double>(g) / g1.size();
  expect(g1 == g2 && g1 != g3, "same seed, same send schedule");
  expect(std::abs(mean - 50000) < 2000, "mean gap matches the offered rate");

  const std::vector<IfacePtr> ifaces = build_client_ifaces(a);
  EchoCodec x(ifaces, 42), y(ifaces, 42);
  Bytes bx(x.max_call_bytes()), by(y.max_call_bytes());
  const CallSpec call{5, 77};
  const std::size_t lx = x.encode(call, 1234, bx.data());
  const std::size_t ly = y.encode(call, 1234, by.data());
  expect(lx == ly && std::memcmp(bx.data(), by.data(), lx) == 0,
         "same seed, same call bytes");
}

}  // namespace

int run_selftest() {
  test_order_statistics();
  test_reply_check();
  test_corrupt_replies_counted();
  test_seed_reproduces_inputs();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "ok", g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace e2e
