// echo-small and echo-mixed: the paper's echo-an-int-array RPC served by
// rpc::EventServerRuntime through core::CachedSpecService, driven by the
// system's own specialized client stubs.
//
// Each run has a closed-loop capacity phase (kClients threads, kWindow
// calls in flight each) and an open-loop latency phase (one generator
// thread, Poisson arrivals, each call timed from its scheduled send).
// Every reply is decoded through the client stub and compared with the
// request.  The traced run (--trace 1) adds a second runtime with
// trace_sample=1, client spans joined to the server's trace records by
// xid, an in-process dispatch pass and a marshaling pass per tier.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "common/endian.h"
#include "common/trace.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "echo.h"
#include "idl/interp.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "pe/compile.h"
#include "pe/layout.h"
#include "pe/plan.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "xdr/xdrmem.h"

namespace e2e {

using namespace tempo;

idl::ProcDef echo_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kEchoProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), kEchoMaxArray);
  proc.res_type = idl::t_array_var(idl::t_int(), kEchoMaxArray);
  return proc;
}

EchoSpec make_echo_spec(const std::string& workload, std::uint64_t seed) {
  EchoSpec s;
  s.name = workload;
  if (workload == "echo-small") {
    s.sizes = {20};
    s.open_loop_rate = 20000;
    return s;
  }
  s.tcp = true;
  s.mean_run = 32;
  // About a quarter of the capacity this workload measured on a 4-vCPU
  // x86-64 VM (~68k calls/s); fixed, never adapted per run.
  s.open_loop_rate = 17000;
  s.sizes = {20, 100, 250, 500, 1000, 2000};
  Gen g(stream_seed(seed, 11));
  constexpr int kExtra = 26;
  const double width = 1980.0 / kExtra;
  for (int i = 0; i < kExtra; ++i) {
    auto n = static_cast<std::uint32_t>(20 + width * (i + g.unit()));
    while (std::find(s.sizes.begin(), s.sizes.end(), n) != s.sizes.end()) ++n;
    s.sizes.push_back(std::min(n, kEchoMaxArray));
  }
  return s;
}

RequestStream::RequestStream(const EchoSpec& spec, std::uint64_t seed,
                             std::uint64_t stream)
    : shapes_(static_cast<std::uint32_t>(spec.sizes.size())),
      mean_run_(spec.mean_run),
      gen_(stream_seed(seed, stream)) {}

CallSpec RequestStream::next() {
  if (left_ == 0) {
    if (shapes_ > 1) {
      const auto pick = static_cast<std::uint32_t>(
          gen_.below(switches_ < 0 ? shapes_ : shapes_ - 1));
      shape_ = (switches_ < 0 || pick < shape_) ? pick : pick + 1;
    }
    left_ = shapes_ > 1 ? gen_.geometric(mean_run_) : ~0ull;
    ++switches_;
  }
  --left_;
  ++calls_;
  return CallSpec{shape_, gen_.u32()};
}

std::vector<IfacePtr> build_client_ifaces(const EchoSpec& spec) {
  std::vector<IfacePtr> out;
  for (const std::uint32_t n : spec.sizes) {
    core::SpecConfig cfg;
    cfg.arg_counts = {n};
    cfg.res_counts = {n};
    auto iface = core::SpecializedInterface::build(echo_proc(), kEchoProg,
                                                   kEchoVers, cfg);
    if (!iface.is_ok()) return {};
    out.push_back(
        std::make_shared<const core::SpecializedInterface>(std::move(*iface)));
  }
  return out;
}

EchoCodec::EchoCodec(const std::vector<IfacePtr>& ifaces, std::uint64_t seed)
    : ifaces_(ifaces), scratch_(kEchoMaxArray) {
  for (std::size_t s = 0; s < ifaces.size(); ++s) {
    Gen g(stream_seed(seed, 1000 + s));
    std::vector<std::uint32_t> w(static_cast<std::size_t>(ifaces[s]->arg_slots()));
    for (auto& x : w) x = g.u32();
    words_.push_back(std::move(w));
    max_call_ = std::max(max_call_, call_bytes(static_cast<std::uint32_t>(s)));
  }
}

std::size_t EchoCodec::call_bytes(std::uint32_t shape) const {
  return ifaces_[shape]->encode_call_plan().out_size;
}

std::size_t EchoCodec::reply_bytes(std::uint32_t shape) const {
  return ifaces_[shape]->decode_reply_plan().expected_in;
}

std::size_t EchoCodec::encode(const CallSpec& c, std::uint32_t xid,
                              std::uint8_t* out) {
  std::vector<std::uint32_t>& w = words_[c.shape];
  w[0] = c.tag;
  const std::size_t len = call_bytes(c.shape);
  return ifaces_[c.shape]->exec_encode_call(w, xid, MutableByteSpan(out, len)) ==
                 pe::ExecStatus::kOk
             ? len
             : 0;
}

bool EchoCodec::verify(const CallSpec& c, std::uint32_t xid, ByteSpan reply) {
  const std::vector<std::uint32_t>& w = words_[c.shape];
  const std::span<std::uint32_t> got(scratch_.data(), w.size());
  if (ifaces_[c.shape]->exec_decode_reply(reply, xid, got) !=
      pe::ExecStatus::kOk) {
    return false;
  }
  return got[0] == c.tag &&
         std::memcmp(got.data() + 1, w.data() + 1,
                     (w.size() - 1) * sizeof(std::uint32_t)) == 0;
}

namespace {

constexpr int kClients = 2;   // closed-loop load threads
constexpr int kWindow = 8;    // calls in flight per closed-loop client
constexpr double kWindowS = 0.25;  // sampling window of the capacity phase
constexpr std::int64_t kRtoNs = 250'000'000;  // first retransmit timeout
constexpr int kMaxRetries = 4;
constexpr std::int64_t kDrainNs = 4'000'000'000;
constexpr int kSetupReps = 5;

// ---- server ---------------------------------------------------------------

struct EchoServer {
  core::SpecCache cache{128};
  rpc::SvcRegistry reg;
  // app.handler_ns: the benchmark's own handler, timed only when asked.
  std::atomic<bool> time_handler{false};
  std::atomic<std::int64_t> handler_ns{0}, handler_calls{0};
  std::unique_ptr<core::CachedSpecService> svc;

  EchoServer() {
    svc = std::make_unique<core::CachedSpecService>(
        cache, echo_proc(), kEchoProg, kEchoVers,
        [this](std::span<const std::uint32_t>,
               std::span<const std::uint32_t> args,
               std::span<std::uint32_t> results) {
          if (!time_handler.load(std::memory_order_relaxed)) {
            std::copy(args.begin(), args.end(), results.begin());
            return true;
          }
          const std::int64_t t0 = now_ns();
          std::copy(args.begin(), args.end(), results.begin());
          handler_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
          handler_calls.fetch_add(1, std::memory_order_relaxed);
          return true;
        });
    svc->install(reg);
  }
};

// One loop thread and one worker: with at most three load threads the
// whole run fits the 4 cores it was sized on.  The backend is pinned to
// epoll (README.md, "Backend"); only the io_uring diagnostic uses kAuto.
std::unique_ptr<rpc::EventServerRuntime> start_runtime(
    EchoServer& srv, bool tcp, rpc::EventBackend backend,
    std::uint32_t trace_sample) {
  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 1;
  cfg.workers_per_shard = 1;
  cfg.enable_udp = !tcp;
  cfg.enable_tcp = tcp;
  cfg.tcp_pipeline_depth = kWindow;
  cfg.backend = backend;
  cfg.trace_sample = trace_sample;
  cfg.trace_ring = trace_sample ? (1u << 19) : 256;
  auto rt = std::make_unique<rpc::EventServerRuntime>(srv.reg, cfg);
  if (!rt->start().is_ok()) return nullptr;
  return rt;
}

net::Addr addr_of(const rpc::EventServerRuntime& rt, bool tcp) {
  return tcp ? rt.tcp_addr() : rt.udp_addr();
}

// ---- client -----------------------------------------------------------------

// Timestamps of one traced call (monotonic ns): encode start/end, send
// end, reply in hand, decode + check done; `sched` is the open-loop
// scheduled send.
struct CallRec {
  std::uint32_t xid = 0;
  std::int64_t sched = 0, enc0 = 0, enc1 = 0, sent = 0, got = 0, done = 0;
};

struct Tally {
  std::atomic<std::int64_t> verified{0};  // written by the owner only
  std::int64_t attempted = 0, failed = 0, retransmits = 0, stale = 0;
  std::int64_t request_bytes = 0;
  std::int64_t calls = 0, switches = 0;
  std::vector<double> latency_ns;   // open loop: reply - scheduled send
  std::vector<double> lateness_ns;  // open loop: actual - scheduled send
  std::vector<CallRec> recs;        // traced phases only
  std::vector<double> send_ns;      // traced: send cost per call, by batch
  std::uint32_t xid_hi = 0;         // high xid byte of the owning client
};

std::atomic<std::uint32_t> g_client_ids{1};

// Everything one load thread owns.
struct Client {
  Client(const EchoSpec& spec, const std::vector<IfacePtr>& ifaces,
         std::uint64_t seed, std::uint64_t stream, Tally& t, bool tr)
      : codec(ifaces, seed),
        calls(spec, seed, stream),
        tally(t),
        trace(tr),
        xid_hi(g_client_ids.fetch_add(1) << 24) {
    tally.xid_hi = xid_hi;
    if (trace) tally.recs.reserve(1u << 18);
  }
  std::uint32_t next_xid() { return xid_hi | (++xid_lo & 0xFFFFFF); }
  void record(const CallRec& r) {
    if (trace && tally.recs.size() < tally.recs.capacity()) {
      tally.recs.push_back(r);
    }
  }
  void finish() {
    tally.calls = calls.calls();
    tally.switches = calls.switches();
  }

  EchoCodec codec;
  RequestStream calls;
  Tally& tally;
  bool trace;
  std::uint32_t xid_hi;
  std::uint32_t xid_lo = 0;
};

std::int64_t rto(int retries) { return kRtoNs << retries; }

// Closed loop over UDP: kWindow calls in flight, retransmit on timeout.
void udp_closed_loop(Client& c, const net::Addr& server,
                     const std::atomic<bool>& stop) {
  struct Slot {
    bool busy = false;
    CallSpec call;
    std::uint32_t xid = 0;
    std::int64_t sent = 0;
    int retries = 0;
    std::size_t len = 0;
    Bytes buf;
    CallRec rec;
  };
  Tally& t = c.tally;
  net::UdpSocket sock(0);
  if (!sock.ok() || !sock.set_nonblocking(true).is_ok()) {
    ++t.attempted;
    ++t.failed;
    return;
  }
  std::vector<Slot> slots(kWindow);
  for (Slot& s : slots) s.buf.resize(c.codec.max_call_bytes());
  std::vector<net::Datagram> batch;
  pollfd pfd{sock.fd(), POLLIN, 0};

  // Free slots are refilled together and sent with one sendmmsg, so
  // the load generator stays cheaper than the server it measures.
  std::vector<net::OutDatagram> out;
  std::vector<Slot*> filled;
  auto issue_free = [&] {
    out.clear();
    filled.clear();
    for (Slot& s : slots) {
      if (s.busy) continue;
      s.call = c.calls.next();
      s.xid = c.next_xid();
      s.rec = CallRec{s.xid};
      s.rec.enc0 = c.trace ? now_ns() : 0;
      s.len = c.codec.encode(s.call, s.xid, s.buf.data());
      if (c.trace) s.rec.enc1 = now_ns();
      ++t.attempted;
      t.request_bytes += static_cast<std::int64_t>(s.len);
      if (s.len == 0) {
        ++t.failed;
        continue;
      }
      out.push_back(net::OutDatagram{server, ByteSpan(s.buf.data(), s.len)});
      filled.push_back(&s);
    }
    if (out.empty()) return;
    const std::int64_t t0 = c.trace ? now_ns() : 0;
    const int sent = sock.send_many(out.data(), static_cast<int>(out.size()));
    const std::int64_t now = now_ns();
    if (c.trace && sent > 0) {
      t.send_ns.push_back(static_cast<double>(now - t0) / sent);
    }
    for (std::size_t i = 0; i < filled.size(); ++i) {
      Slot& s = *filled[i];
      if (static_cast<int>(i) >= sent && !sock.send_to(server, out[i].payload).is_ok()) {
        ++t.failed;
        continue;
      }
      s.sent = now;
      s.rec.sent = now;
      s.retries = 0;
      s.busy = true;
    }
  };

  bool draining = false;
  std::int64_t drain_until = 0;
  for (;;) {
    if (!draining && stop.load(std::memory_order_relaxed)) {
      draining = true;
      drain_until = now_ns() + kDrainNs;
    }
    if (!draining) issue_free();
    int busy = 0;
    for (const Slot& s : slots) busy += s.busy;
    if (busy == 0) break;
    const int n = sock.recv_many(batch, 16);
    if (n > 0) {
      const std::int64_t got = now_ns();
      for (int i = 0; i < n; ++i) {
        const net::Datagram& d = batch[static_cast<std::size_t>(i)];
        const std::uint32_t xid = d.len >= 4 ? load_be32(d.payload.data()) : 0;
        Slot* s = nullptr;
        for (Slot& x : slots) {
          if (x.busy && x.xid == xid) s = &x;
        }
        if (s == nullptr) {  // duplicate after a retransmit, or garbage
          ++t.stale;
          continue;
        }
        s->busy = false;
        if (c.codec.verify(s->call, xid, ByteSpan(d.payload.data(), d.len))) {
          bump(t.verified);
        } else {
          ++t.failed;
        }
        if (c.trace) {
          s->rec.got = got;
          s->rec.done = now_ns();
          c.record(s->rec);
        }
      }
      continue;
    }
    ::poll(&pfd, 1, 1);
    const std::int64_t now = now_ns();
    for (Slot& s : slots) {
      if (!s.busy || now - s.sent < rto(s.retries)) continue;
      if (s.retries == kMaxRetries || (draining && now > drain_until)) {
        s.busy = false;
        ++t.failed;
        continue;
      }
      ++s.retries;
      ++t.retransmits;
      s.sent = now;
      s.rec.sent = now;
      if (!sock.send_to(server, ByteSpan(s.buf.data(), s.len)).is_ok()) {
        s.busy = false;
        ++t.failed;
      }
    }
  }
}

// Splits a record-marked stream (RFC 1057 section 10) into records.
class RecordReader {
 public:
  RecordReader() : buf_(1u << 18) {}
  MutableByteSpan space() {
    if (buf_.size() - len_ < 65536) buf_.resize(buf_.size() * 2);
    return MutableByteSpan(buf_.data() + len_, buf_.size() - len_);
  }
  void commit(std::size_t n) { len_ += n; }
  // Calls fn(ByteSpan) per complete record; false on a malformed mark.
  template <typename Fn>
  bool drain(Fn&& fn) {
    std::size_t pos = 0;
    bool ok = true;
    while (len_ - pos >= 4) {
      const std::uint32_t mark = load_be32(buf_.data() + pos);
      const std::size_t flen = mark & 0x7FFFFFFFu;
      if (flen > (1u << 20)) {
        ok = false;
        break;
      }
      if (len_ - pos - 4 < flen) break;
      const ByteSpan frag(buf_.data() + pos + 4, flen);
      pos += 4 + flen;
      if ((mark & 0x80000000u) == 0) {
        rec_.insert(rec_.end(), frag.begin(), frag.end());
      } else if (rec_.empty()) {
        fn(frag);
      } else {
        rec_.insert(rec_.end(), frag.begin(), frag.end());
        fn(ByteSpan(rec_));
        rec_.clear();
      }
    }
    std::memmove(buf_.data(), buf_.data() + pos, len_ - pos);
    len_ -= pos;
    return ok;
  }

 private:
  Bytes buf_;
  std::size_t len_ = 0;
  Bytes rec_;
};

struct Outstanding {
  CallSpec call;
  std::uint32_t xid = 0;
  CallRec rec;
};

// Matches an in-order TCP reply to the oldest outstanding call.
void on_tcp_reply(Client& c, std::deque<Outstanding>& fifo, ByteSpan reply,
                  std::int64_t got) {
  Tally& t = c.tally;
  if (fifo.empty()) {
    ++t.stale;
    return;
  }
  Outstanding o = fifo.front();
  fifo.pop_front();
  if (c.codec.verify(o.call, o.xid, reply)) {
    bump(t.verified);
  } else {
    ++t.failed;
  }
  if (o.rec.sched != 0) t.latency_ns.push_back(static_cast<double>(got - o.rec.sched));
  if (c.trace) {
    o.rec.got = got;
    o.rec.done = now_ns();
    c.record(o.rec);
  }
}

// Closed loop over one pipelined TCP connection, kWindow calls deep.
void tcp_closed_loop(Client& c, const net::Addr& server,
                     const std::atomic<bool>& stop) {
  Tally& t = c.tally;
  auto conn = net::TcpConn::connect(server);
  if (!conn) {
    ++t.attempted;
    ++t.failed;
    return;
  }
  std::deque<Outstanding> fifo;
  Bytes frame(4 + c.codec.max_call_bytes());
  RecordReader rx;
  for (;;) {
    const bool draining = stop.load(std::memory_order_relaxed);
    while (!draining && fifo.size() < kWindow) {
      Outstanding o{c.calls.next(), c.next_xid(), {}};
      o.rec.xid = o.xid;
      o.rec.enc0 = c.trace ? now_ns() : 0;
      const std::size_t len = c.codec.encode(o.call, o.xid, frame.data() + 4);
      if (c.trace) o.rec.enc1 = now_ns();
      ++t.attempted;
      t.request_bytes += static_cast<std::int64_t>(len);
      store_be32(frame.data(), 0x80000000u | static_cast<std::uint32_t>(len));
      if (len == 0 || !conn->write_all(ByteSpan(frame.data(), len + 4)).is_ok()) {
        ++t.failed;
        continue;
      }
      o.rec.sent = c.trace ? now_ns() : 0;
      fifo.push_back(o);
    }
    if (fifo.empty()) break;
    auto r = conn->read_some(rx.space(), static_cast<int>(kDrainNs / 1000000));
    if (!r.is_ok()) {
      t.failed += static_cast<std::int64_t>(fifo.size());
      return;
    }
    const std::int64_t got = now_ns();
    rx.commit(*r);
    if (!rx.drain([&](ByteSpan rec) { on_tcp_reply(c, fifo, rec, got); })) {
      t.failed += static_cast<std::int64_t>(fifo.size());
      return;
    }
  }
}

// Open loop over UDP: Poisson sends from the schedule, busy-polling the
// socket in between (never a blind sleep).
void udp_open_loop(Client& c, const net::Addr& server, double rate,
                   std::uint64_t sched_seed, std::int64_t begin,
                   std::int64_t end) {
  struct Pending {
    bool busy = false;
    CallSpec call;
    std::int64_t sched = 0, sent = 0;
    int retries = 0;
    CallRec rec;
  };
  constexpr std::size_t kRing = 1u << 16;
  Tally& t = c.tally;
  net::UdpSocket sock(0);
  if (!sock.ok() || !sock.set_nonblocking(true).is_ok()) {
    ++t.attempted;
    ++t.failed;
    return;
  }
  std::vector<Pending> ring(kRing);
  std::deque<std::pair<std::uint32_t, std::int64_t>> timers;  // xid, due
  std::size_t busy = 0;
  Bytes buf(c.codec.max_call_bytes());
  std::vector<net::Datagram> batch;
  PoissonSchedule sched(sched_seed, rate);
  t.latency_ns.reserve(static_cast<std::size_t>(rate * 1e-9 * (end - begin) * 1.2) + 16);
  t.lateness_ns.reserve(t.latency_ns.capacity());

  auto send = [&](Pending& p, std::uint32_t xid) {
    const std::size_t len = c.codec.encode(p.call, xid, buf.data());
    return len != 0 && sock.send_to(server, ByteSpan(buf.data(), len)).is_ok();
  };
  auto receive = [&]() {
    const int n = sock.recv_many(batch, 16);
    const std::int64_t got = now_ns();
    for (int i = 0; i < n; ++i) {
      const net::Datagram& d = batch[static_cast<std::size_t>(i)];
      const std::uint32_t xid = d.len >= 4 ? load_be32(d.payload.data()) : 0;
      Pending& p = ring[xid & (kRing - 1)];
      if (!p.busy || p.rec.xid != xid) {
        ++t.stale;
        continue;
      }
      p.busy = false;
      --busy;
      if (c.codec.verify(p.call, xid, ByteSpan(d.payload.data(), d.len))) {
        bump(t.verified);
      } else {
        ++t.failed;
      }
      t.latency_ns.push_back(static_cast<double>(got - p.sched));
      if (c.trace) {
        p.rec.got = got;
        p.rec.done = now_ns();
        c.record(p.rec);
      }
    }
    return n;
  };
  auto check_timers = [&](std::int64_t now, bool give_up) {
    while (!timers.empty()) {
      const auto [xid, due] = timers.front();
      Pending& p = ring[xid & (kRing - 1)];
      if (!p.busy || p.rec.xid != xid) {
        timers.pop_front();
        continue;
      }
      if (now < due) break;
      timers.pop_front();
      if (p.retries == kMaxRetries || give_up) {
        p.busy = false;
        --busy;
        ++t.failed;
        continue;
      }
      ++p.retries;
      ++t.retransmits;
      p.sent = now;
      if (!send(p, xid)) {
        p.busy = false;
        --busy;
        ++t.failed;
        continue;
      }
      timers.emplace_back(xid, now + rto(p.retries));
    }
  };

  std::int64_t due = begin + sched.next_gap_ns();
  std::int64_t last_check = begin;
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= end) break;
    if (now >= due) {
      const std::uint32_t xid = c.next_xid();
      Pending& p = ring[xid & (kRing - 1)];
      ++t.attempted;
      if (p.busy) {  // 65536 calls outstanding: the server has stalled
        ++t.failed;
        --busy;
      }
      p = Pending{true, c.calls.next(), due, 0, 0, CallRec{xid}};
      p.rec.sched = due;
      p.rec.enc0 = now;
      const bool ok = send(p, xid);
      p.sent = now_ns();
      p.rec.enc1 = p.rec.sent = p.sent;
      t.lateness_ns.push_back(static_cast<double>(now - due));
      t.request_bytes += static_cast<std::int64_t>(c.codec.call_bytes(p.call.shape));
      if (!ok) {
        p.busy = false;
        ++t.failed;
      } else {
        ++busy;
        timers.emplace_back(xid, p.sent + rto(0));
      }
      due += sched.next_gap_ns();
      continue;
    }
    if (receive() == 0 && now - last_check > 1'000'000) {
      check_timers(now, false);
      last_check = now;
    }
  }
  const std::int64_t drain_until = now_ns() + kDrainNs;
  pollfd pfd{sock.fd(), POLLIN, 0};
  while (busy > 0) {
    if (receive() == 0) ::poll(&pfd, 1, 1);
    const std::int64_t now = now_ns();
    check_timers(now, now > drain_until);
  }
}

// Open loop over one non-blocking TCP connection: due calls are queued
// for writing at once; the socket is busy-polled in both directions.
void tcp_open_loop(Client& c, const net::Addr& server, double rate,
                   std::uint64_t sched_seed, std::int64_t begin,
                   std::int64_t end) {
  Tally& t = c.tally;
  auto conn = net::TcpConn::connect(server);
  if (!conn || !conn->set_nonblocking(true).is_ok()) {
    ++t.attempted;
    ++t.failed;
    return;
  }
  std::deque<Outstanding> fifo;
  Bytes out;
  std::size_t out_off = 0;
  RecordReader rx;
  PoissonSchedule sched(sched_seed, rate);
  t.latency_ns.reserve(static_cast<std::size_t>(rate * 1e-9 * (end - begin) * 1.2) + 16);
  t.lateness_ns.reserve(t.latency_ns.capacity());
  bool broken = false;

  auto pump = [&]() {
    if (out_off < out.size()) {
      auto w = conn->write_some(ByteSpan(out.data() + out_off, out.size() - out_off), 0);
      if (w.is_ok()) {
        out_off += *w;
      } else if (w.status().code() != StatusCode::kTimeout) {
        broken = true;
      }
      if (out_off == out.size()) {
        out.clear();
        out_off = 0;
      }
    }
    auto r = conn->read_some(rx.space(), 0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) broken = true;
      return false;
    }
    const std::int64_t got = now_ns();
    rx.commit(*r);
    if (!rx.drain([&](ByteSpan rec) { on_tcp_reply(c, fifo, rec, got); })) {
      broken = true;
    }
    return true;
  };

  std::int64_t due = begin + sched.next_gap_ns();
  while (!broken) {
    const std::int64_t now = now_ns();
    if (now >= end) break;
    if (now >= due) {
      Outstanding o{c.calls.next(), c.next_xid(), {}};
      o.rec.xid = o.xid;
      o.rec.sched = due;
      o.rec.enc0 = now;
      const std::size_t at = out.size();
      out.resize(at + 4 + c.codec.max_call_bytes());
      const std::size_t len = c.codec.encode(o.call, o.xid, out.data() + at + 4);
      out.resize(at + 4 + len);
      store_be32(out.data() + at, 0x80000000u | static_cast<std::uint32_t>(len));
      ++t.attempted;
      t.request_bytes += static_cast<std::int64_t>(len);
      t.lateness_ns.push_back(static_cast<double>(now - due));
      o.rec.enc1 = now_ns();
      if (len == 0) {
        ++t.failed;
        out.resize(at);
      } else {
        // Queued before the pump: its reply may arrive within it.
        o.rec.sent = now_ns();
        fifo.push_back(o);
        pump();
      }
      due += sched.next_gap_ns();
      continue;
    }
    pump();
  }
  const std::int64_t drain_until = now_ns() + kDrainNs;
  while (!broken && !fifo.empty() && now_ns() < drain_until) pump();
  t.failed += static_cast<std::int64_t>(fifo.size());
}

// ---- set-up ---------------------------------------------------------------

// One complete server + client set-up.  Member order matters: runtimes
// stop before the registry and service they dispatch into go away.
struct Stack {
  EchoSpec spec;
  std::vector<IfacePtr> ifaces;
  std::unique_ptr<EchoServer> server;
  std::unique_ptr<rpc::EventServerRuntime> rt;
};

// Warm-up: serve every shape until the server holds its specialization
// (and, for a single shape, until the hot slots have published).
bool warm_up(Stack& st, std::uint64_t seed) {
  Tally t;
  Client c(st.spec, st.ifaces, seed, 5, t, false);
  const net::Addr addr = addr_of(*st.rt, st.spec.tcp);
  const int per_shape = st.spec.sizes.size() == 1 ? 256 : 2;
  Bytes buf(4 + c.codec.max_call_bytes());
  std::unique_ptr<net::TcpConn> conn;
  net::UdpSocket sock(0);
  if (st.spec.tcp && !(conn = net::TcpConn::connect(addr))) return false;
  RecordReader rx;
  Bytes reply(65536);
  for (std::uint32_t s = 0; s < st.spec.sizes.size(); ++s) {
    for (int k = 0; k < per_shape; ++k) {
      const CallSpec call{s, static_cast<std::uint32_t>(k)};
      const std::uint32_t xid = c.next_xid();
      const std::size_t len = c.codec.encode(call, xid, buf.data() + 4);
      bool ok = false;
      if (st.spec.tcp) {
        std::deque<Outstanding> fifo{Outstanding{call, xid, {}}};
        store_be32(buf.data(), 0x80000000u | static_cast<std::uint32_t>(len));
        if (!conn->write_all(ByteSpan(buf.data(), len + 4)).is_ok()) return false;
        const std::int64_t before = t.verified.load();
        while (!fifo.empty()) {
          auto r = conn->read_some(rx.space(), 5000);
          if (!r.is_ok()) return false;
          rx.commit(*r);
          rx.drain([&](ByteSpan rec) { on_tcp_reply(c, fifo, rec, 0); });
        }
        ok = t.verified.load() == before + 1;
      } else {
        for (int attempt = 0; attempt < 5 && !ok; ++attempt) {
          if (!sock.send_to(addr, ByteSpan(buf.data() + 4, len)).is_ok()) return false;
          net::Addr from;
          auto r = sock.recv_from(&from, MutableByteSpan(reply), 500);
          while (r.is_ok() && !(*r >= 4 && load_be32(reply.data()) == xid)) {
            r = sock.recv_from(&from, MutableByteSpan(reply), 500);
          }
          ok = r.is_ok() && c.codec.verify(call, xid, ByteSpan(reply.data(), *r));
        }
      }
      if (!ok) return false;
    }
  }
  return true;
}

std::unique_ptr<Stack> build_stack(const EchoSpec& spec, std::uint64_t seed) {
  auto st = std::make_unique<Stack>();
  st->spec = spec;
  st->ifaces = build_client_ifaces(spec);
  if (st->ifaces.size() != spec.sizes.size()) return nullptr;
  st->server = std::make_unique<EchoServer>();
  st->rt = start_runtime(*st->server, spec.tcp, rpc::EventBackend::kEpoll, 0);
  if (!st->rt || !warm_up(*st, seed)) return nullptr;
  return st;
}

// ---- phases ---------------------------------------------------------------

struct PhaseResult {
  std::vector<double> window_rate;    // verified calls/s per window
  std::vector<double> window_cpu_us;  // process CPU us per verified call
  std::int64_t verified = 0;
  double seconds = 0;
  double cpu_s = 0;          // process CPU over the phase
  double client_cpu_s = 0;   // the load threads' own CPU
  std::int64_t ctx = 0;      // context switches over the phase
  std::vector<Tally> tallies;

  explicit PhaseResult(std::size_t clients) : tallies(clients) {}
  double rate() const { return seconds > 0 ? verified / seconds : 0; }
};

std::int64_t verified_sum(const std::vector<Tally>& ts) {
  std::int64_t v = 0;
  for (const Tally& t : ts) v += t.verified.load(std::memory_order_relaxed);
  return v;
}

// Closed-loop capacity: kClients threads for `seconds`, sampled every
// kWindowS; the first window is warm-up and is not sampled.
std::unique_ptr<PhaseResult> capacity_phase(const Stack& st,
                                            const net::Addr& addr,
                                            double seconds, bool trace,
                                            std::uint64_t seed,
                                            std::uint64_t stream) {
  auto res = std::make_unique<PhaseResult>(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Tally& t = res->tallies[static_cast<std::size_t>(i)];
      Client c(st.spec, st.ifaces, seed, stream + static_cast<std::uint64_t>(i), t, trace);
      if (st.spec.tcp) {
        tcp_closed_loop(c, addr, stop);
      } else {
        udp_closed_loop(c, addr, stop);
      }
      c.finish();
    });
  }
  auto client_cpu = [&] {
    double s = 0;
    for (auto& th : threads) s += cpu_of(th);
    return s;
  };
  const std::int64_t t0 = now_ns();
  const auto windows = static_cast<int>(std::max(2.0, std::round(seconds / kWindowS)));
  std::int64_t v_prev = 0, v_first = 0, ctx0 = 0, t_prev = 0, t_first = 0;
  double cpu_prev = 0, cpu_first = 0, client_first = 0;
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            t0 + static_cast<std::int64_t>(w * kWindowS * 1e9))));
    const std::int64_t now = now_ns();
    const std::int64_t v = verified_sum(res->tallies);
    const double cpu = process_cpu_s();
    if (w == 1) {
      ctx0 = context_switches();
      client_first = client_cpu();
      v_first = v;
      t_first = now;
      cpu_first = cpu;
    } else if (v > v_prev) {
      res->window_rate.push_back((v - v_prev) * 1e9 / static_cast<double>(now - t_prev));
      res->window_cpu_us.push_back((cpu - cpu_prev) * 1e6 / static_cast<double>(v - v_prev));
    }
    v_prev = v;
    t_prev = now;
    cpu_prev = cpu;
  }
  res->client_cpu_s = client_cpu() - client_first;
  res->ctx = context_switches() - ctx0;
  res->verified = v_prev - v_first;
  res->seconds = (t_prev - t_first) * 1e-9;
  res->cpu_s = cpu_prev - cpu_first;
  stop = true;
  for (auto& th : threads) th.join();
  return res;
}

std::unique_ptr<PhaseResult> latency_phase(const Stack& st,
                                           const net::Addr& addr,
                                           double seconds, bool trace,
                                           std::uint64_t seed,
                                           std::uint64_t stream) {
  auto res = std::make_unique<PhaseResult>(1);
  Tally& t = res->tallies[0];
  const std::int64_t begin = now_ns() + 20'000'000;
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  std::thread th([&] {
    Client c(st.spec, st.ifaces, seed, stream, t, trace);
    while (now_ns() < begin) {
    }
    if (st.spec.tcp) {
      tcp_open_loop(c, addr, st.spec.open_loop_rate,
                    stream_seed(seed, stream + 100), begin, end);
    } else {
      udp_open_loop(c, addr, st.spec.open_loop_rate,
                    stream_seed(seed, stream + 100), begin, end);
    }
    c.finish();
  });
  th.join();
  res->verified = t.verified.load();
  res->seconds = seconds;
  return res;
}

// ---- traced-run passes ----------------------------------------------------

// rpc.dispatch_ns: SvcRegistry::handle_request over the workload's own
// generated requests, in process, no sockets.  Every reply is checked.
double dispatch_pass(Stack& st, std::uint64_t seed, std::int64_t* attempted,
                     std::int64_t* failed) {
  Tally t;
  Client c(st.spec, st.ifaces, seed, 900, t, false);
  constexpr int kRequests = 256;
  std::vector<Bytes> reqs;
  std::vector<std::pair<CallSpec, std::uint32_t>> calls;
  for (int i = 0; i < kRequests; ++i) {
    const CallSpec call = c.calls.next();
    const std::uint32_t xid = c.next_xid();
    Bytes b(c.codec.call_bytes(call.shape));
    c.codec.encode(call, xid, b.data());
    reqs.push_back(std::move(b));
    calls.emplace_back(call, xid);
  }
  Bytes reply(rpc::reply_capacity(c.codec.max_call_bytes()));
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t n = st.server->reg.handle_request(reqs[i], reply);
    ++*attempted;
    if (!c.codec.verify(calls[i].first, calls[i].second, ByteSpan(reply.data(), n))) {
      ++*failed;
    }
  }
  std::vector<double> per_call;
  for (int round = 0; round < 40; ++round) {
    for (int b = 0; b < kRequests; b += 32) {
      const std::int64_t t0 = now_ns();
      for (int i = b; i < b + 32; ++i) st.server->reg.handle_request(reqs[i], reply);
      per_call.push_back(static_cast<double>(now_ns() - t0) / 32);
    }
  }
  return median(per_call);
}

struct TierNs {
  double compiled = 0, plan = 0, generic = 0;
};

// Median time per iteration of fn over repeated ~200 us chunks.
template <typename Fn>
double time_per_iter(Fn&& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    std::int64_t iters = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 200'000) {
      fn();
      ++iters;
      t1 = now_ns();
    }
    samples.push_back(static_cast<double>(t1 - t0) / static_cast<double>(iters));
  }
  return median(samples);
}

// pe.marshal_ns.{compiled,plan,generic}: the four marshaling legs of one
// call (encode call, decode args, encode results, decode reply) on each
// tier, averaged over the workload's shape mix.  `*mismatches` counts
// tiers whose decoded words differ from the encoded ones.
TierNs marshal_pass(const Stack& st, const std::vector<double>& shape_share,
                    std::int64_t* mismatches) {
  TierNs out;
  const idl::ProcDef proc = echo_proc();
  for (std::size_t s = 0; s < st.ifaces.size(); ++s) {
    if (shape_share[s] <= 0) continue;
    const core::SpecializedInterface& f = *st.ifaces[s];
    const std::uint32_t n = st.spec.sizes[s];
    std::vector<std::uint32_t> words(n), back(n);
    Gen g(stream_seed(n, 3));
    for (auto& w : words) w = g.u32();
    const std::uint32_t counts[] = {n};
    const idl::Value value = *pe::unflatten_value(*proc.arg_type, counts, words);
    const std::size_t call_len = f.encode_call_plan().out_size;
    const std::size_t args_len = f.decode_args_plan().expected_in;
    const std::size_t res_len = f.encode_results_plan().out_size;
    Bytes call(call_len), res(res_len), reply(f.decode_reply_plan().expected_in);
    constexpr std::uint32_t kXid = 42;
    // A reply as the server sends it: accepted header, then results.
    {
      xdr::XdrMem x(MutableByteSpan(reply), xdr::XdrOp::kEncode);
      rpc::ReplyHeader h;
      h.xid = kXid;
      rpc::xdr_reply_header(x, h);
      f.exec_encode_results(words, MutableByteSpan(reply.data() + x.getpos(), res_len));
    }
    const ByteSpan args(call.data() + call_len - args_len, args_len);

    auto check = [&](std::span<const std::uint32_t> got) {
      if (!std::equal(got.begin(), got.end(), words.begin())) ++*mismatches;
    };
    double compiled = 0;
    if (f.encode_call_jit() && f.decode_args_jit() && f.encode_results_jit() &&
        f.decode_reply_jit()) {
      auto legs = [&] {
        f.encode_call_jit()->run_encode(words, kXid, MutableByteSpan(call));
        f.decode_args_jit()->run_decode(args, 0, back);
        f.encode_results_jit()->run_encode(back, 0, MutableByteSpan(res));
        f.decode_reply_jit()->run_decode(reply, kXid, back);
      };
      compiled = time_per_iter(legs);
      check(back);
    }
    auto plan_legs = [&] {
      pe::run_plan_encode(f.encode_call_plan(), words, kXid, MutableByteSpan(call));
      pe::run_plan_decode(f.decode_args_plan(), args, 0, back);
      pe::run_plan_encode(f.encode_results_plan(), back, 0, MutableByteSpan(res));
      pe::run_plan_decode(f.decode_reply_plan(), reply, kXid, back);
    };
    const double plan = time_per_iter(plan_legs);
    check(back);
    idl::Value got;
    auto generic_legs = [&] {
      {
        xdr::XdrMem x(MutableByteSpan(call), xdr::XdrOp::kEncode);
        rpc::CallHeader h;
        h.xid = kXid;
        h.prog = kEchoProg;
        h.vers = kEchoVers;
        h.proc = kEchoProc;
        rpc::xdr_call_header(x, h);
        idl::encode_value(x, *proc.arg_type, value);
      }
      {
        xdr::XdrMem x(args, xdr::XdrOp::kDecode);
        idl::decode_value(x, *proc.arg_type, got);
      }
      {
        xdr::XdrMem x(MutableByteSpan(res), xdr::XdrOp::kEncode);
        idl::encode_value(x, *proc.res_type, got);
      }
      {
        xdr::XdrMem x(ByteSpan(reply), xdr::XdrOp::kDecode);
        rpc::ReplyHeader h;
        rpc::xdr_reply_header(x, h);
        idl::decode_value(x, *proc.res_type, got);
      }
    };
    const double generic = time_per_iter(generic_legs);
    pe::Slots flat;
    if (!pe::flatten_value(*proc.res_type, got, counts, flat).is_ok()) {
      ++*mismatches;
    } else {
      check(flat);
    }
    out.compiled += shape_share[s] * compiled;
    out.plan += shape_share[s] * plan;
    out.generic += shape_share[s] * generic;
  }
  return out;
}

// ---- trace analysis -------------------------------------------------------

// Writes client spans and, joined by xid, the server's stage spans as
// JSON lines {"id", "name", "parent", "xid", "start", "end"} (monotonic
// ns).  The tracer keeps stage durations, not their start times, so the
// server stages are laid end to end in stage order.
void write_spans(const std::string& path, const std::vector<CallRec>& calls,
                 const std::vector<common::TraceRecord>& server,
                 std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::unordered_map<std::uint32_t, const common::TraceRecord*> by_xid;
  for (const auto& r : server) by_xid[r.xid] = &r;
  auto emit = [f](std::uint32_t xid, const std::string& name,
                  const char* parent, std::int64_t a, std::int64_t b) {
    std::string par = "null";
    if (parent != nullptr) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "\"%08x.%s\"", xid, parent);
      par = buf;
    }
    std::fprintf(f,
                 "{\"id\": \"%08x.%s\", \"name\": \"%s\", \"parent\": %s, "
                 "\"xid\": %u, \"start\": %lld, \"end\": %lld}\n",
                 xid, name.c_str(), name.c_str(), par.c_str(), xid,
                 static_cast<long long>(a), static_cast<long long>(b));
  };
  for (std::size_t i = 0; i < calls.size() && i < limit; ++i) {
    const CallRec& c = calls[i];
    emit(c.xid, "call", nullptr, c.sched ? std::min(c.sched, c.enc0) : c.enc0,
         c.done);
    emit(c.xid, "client.encode", "call", c.enc0, c.enc1);
    emit(c.xid, "client.send", "call", c.enc1, c.sent);
    emit(c.xid, "client.wait", "call", c.sent, c.got);
    emit(c.xid, "client.decode", "call", c.got, c.done);
    auto it = by_xid.find(c.xid);
    if (it == by_xid.end()) continue;
    const common::TraceRecord& r = *it->second;
    emit(c.xid, "server", "client.wait", r.start_ns, r.start_ns + r.total_ns);
    std::int64_t at = r.start_ns;
    for (std::size_t st = 0; st < common::kTraceStageCount; ++st) {
      emit(c.xid,
           std::string("server.") +
               common::trace_stage_name(static_cast<common::TraceStage>(st)),
           "server", at, at + r.stage_ns[st]);
      at += r.stage_ns[st];
    }
  }
  std::fclose(f);
}

struct Counters {
  std::int64_t udp_datagrams = 0, udp_batches = 0, reply_batches = 0;
  std::int64_t overload_drops = 0, reply_send_failures = 0, write_stalls = 0;
  std::int64_t work_steals = 0;
  std::int64_t fast = 0, generic = 0, jit = 0;
  core::SpecCacheStats cache;
  common::BufferArenaStats arena;
};

Counters read_counters(const Stack& st, const rpc::EventServerRuntime& rt) {
  Counters c;
  const auto& s = rt.stats();
  c.udp_datagrams = s.udp_datagrams.load();
  c.udp_batches = s.udp_batches.load();
  c.reply_batches = s.udp_reply_batches.load();
  c.overload_drops = s.overload_drops.load();
  c.reply_send_failures = s.reply_send_failures.load();
  c.write_stalls = s.write_stalls.load();
  c.work_steals = s.work_steals.load();
  const auto& v = st.server->svc->stats();
  c.fast = v.fast_path.load();
  c.generic = v.generic_path.load();
  c.jit = v.jit_fast_path.load();
  c.cache = st.server->cache.stats();
  c.arena = rt.arena_stats();
  return c;
}

void tally_into(Outcome& o, const PhaseResult& p) {
  for (const Tally& t : p.tallies) {
    o.attempted += t.attempted;
    o.failed += t.failed;
  }
}

std::int64_t sum_of(const PhaseResult& p, std::int64_t Tally::*field) {
  std::int64_t v = 0;
  for (const Tally& t : p.tallies) v += t.*field;
  return v;
}

void print_latency(const char* label, const PhaseResult& p) {
  const Tally& t = p.tallies[0];
  std::printf(
      "%s: offered %.0f/s, %zu replies timed from scheduled send: p50 %.1f us, "
      "p99 %.1f us (%zu beyond), p999 %.1f us (%zu beyond); generator late "
      "p99 %.1f us, max %.1f us\n",
      label, p.seconds > 0 ? t.attempted / p.seconds : 0, t.latency_ns.size(),
      percentile(t.latency_ns, 0.5) / 1e3, percentile(t.latency_ns, 0.99) / 1e3,
      t.latency_ns.size() / 100, percentile(t.latency_ns, 0.999) / 1e3,
      t.latency_ns.size() / 1000, percentile(t.lateness_ns, 0.99) / 1e3,
      percentile(t.lateness_ns, 1.0) / 1e3);
}

// Per-run workload properties: shape switches, size and byte mix.
void print_properties(const Stack& st, const std::vector<const PhaseResult*>& phases,
                      const Counters& before, const Counters& after) {
  std::int64_t calls = 0, switches = 0, bytes = 0;
  for (const PhaseResult* p : phases) {
    calls += sum_of(*p, &Tally::calls);
    switches += sum_of(*p, &Tally::switches);
    bytes += sum_of(*p, &Tally::request_bytes);
  }
  const double served = static_cast<double>((after.fast - before.fast) +
                                            (after.generic - before.generic));
  std::uint32_t lo = ~0u, hi = 0;
  double mean_n = 0;
  for (const std::uint32_t n : st.spec.sizes) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
    mean_n += n / static_cast<double>(st.spec.sizes.size());
  }
  std::printf(
      "properties: shapes %zu (n %u..%u, mean n %.0f), shape-switch share "
      "%.4f, fast-path share %.4f, jit share %.4f, mean request %.0f bytes\n",
      st.spec.sizes.size(), lo, hi, mean_n,
      ratio_or_zero(static_cast<double>(switches), static_cast<double>(calls)),
      ratio_or_zero(static_cast<double>(after.fast - before.fast), served),
      ratio_or_zero(static_cast<double>(after.jit - before.jit), served),
      ratio_or_zero(static_cast<double>(bytes), static_cast<double>(calls)));
}

// The io_uring diagnostic: echo-small's capacity phase rerun on the
// default backend (kAuto), reported beside, never compared.
void uring_diagnostic(Stack& st, double seconds, std::uint64_t seed, Outcome& o) {
  auto rt = start_runtime(*st.server, false, rpc::EventBackend::kAuto, 0);
  if (!rt) {
    std::printf("uring diagnostic: runtime did not start\n");
    return;
  }
  std::vector<double> rates;
  std::int64_t calls = 0;
  const std::int64_t enters0 = rt->uring_enter_calls();
  for (int rep = 0; rep < 3; ++rep) {
    auto p = capacity_phase(st, rt->udp_addr(), seconds / 3, false, seed, 700 + 10 * rep);
    tally_into(o, *p);
    rates.push_back(p->rate());
    calls += p->verified;
  }
  const double enters =
      ratio_or_zero(static_cast<double>(rt->uring_enter_calls() - enters0),
                    static_cast<double>(calls));
  std::printf("uring diagnostic (backend %s): calls/s %.0f / %.0f / %.0f "
              "(min/median/max of 3), %.3f io_uring_enter per call\n",
              rt->backend(), *std::min_element(rates.begin(), rates.end()), median(rates),
              *std::max_element(rates.begin(), rates.end()), enters);
  o.add("diag.uring_calls_per_s", median(rates), "1/s");
  o.add("net.uring_enters_per_call", enters, "1/call");
  rt->stop();
}

}  // namespace

LoopCounts run_udp_client(const EchoSpec& spec,
                          const std::vector<IfacePtr>& ifaces,
                          std::uint64_t seed, const net::Addr& server,
                          double seconds) {
  Tally t;
  std::atomic<bool> stop{false};
  std::thread th([&] {
    Client c(spec, ifaces, seed, 1, t, false);
    udp_closed_loop(c, server, stop);
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  th.join();
  return LoopCounts{t.attempted, t.verified.load(), t.failed};
}

ServerSummary summarize(const std::vector<common::TraceRecord>& recs) {
  ServerSummary s;
  s.records = recs.size();
  if (recs.empty()) return s;
  std::vector<double> v, total;
  std::size_t tiers[4] = {};
  for (std::size_t st = 0; st < common::kTraceStageCount; ++st) {
    v.clear();
    for (const auto& r : recs) v.push_back(static_cast<double>(r.stage_ns[st]));
    s.stage_p50[st] = median(v);
    s.stage_sum_p50 += s.stage_p50[st];
  }
  for (const auto& r : recs) {
    total.push_back(static_cast<double>(r.total_ns));
    ++tiers[static_cast<std::size_t>(r.tier) & 3];
  }
  s.total_p50 = median(total);
  for (int t = 0; t < 4; ++t) {
    s.tier_share[t] = static_cast<double>(tiers[t]) / static_cast<double>(recs.size());
  }
  return s;
}

void add_server_metrics(Outcome& o, const ServerSummary& s) {
  static const char* kStageMetric[] = {
      "server.recv_ns",    "server.decode_ns", "server.cache_lookup_ns",
      "server.execute_ns", "server.encode_ns", "server.flush_ns"};
  o.add("server.total_ns", s.total_p50, "ns");
  for (std::size_t i = 0; i < common::kTraceStageCount; ++i) {
    o.add(kStageMetric[i], s.stage_p50[i], "ns");
  }
  using common::TraceTier;
  o.add("server.tier_share.jit", s.tier_share[static_cast<int>(TraceTier::kJit)], "ratio");
  o.add("server.tier_share.plan", s.tier_share[static_cast<int>(TraceTier::kPlan)], "ratio");
  o.add("server.tier_share.generic", s.tier_share[static_cast<int>(TraceTier::kGeneric)], "ratio");
}

Outcome run_rpc_workload(const Options& opt) {
  Outcome o;
  const EchoSpec spec = make_echo_spec(opt.workload, opt.seed);

  // Set-up: runtime start, every client and server specialization
  // (verifier and JIT included), cache warm-up.  Repeated; the median
  // is setup_s and the last stack serves the run.
  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    st.reset();
    const std::int64_t t0 = now_ns();
    st = build_stack(spec, opt.seed);
    setups.push_back((now_ns() - t0) * 1e-9);
    if (!st) {
      std::printf("set-up failed\n");
      o.attempted = 1;
      o.failed = 1;
      o.add("setup_s", setups.back(), "s");
      return o;
    }
  }
  const double setup_s = median(setups);
  std::printf("%s: %s, %zu shapes, set-up %.4f s (median of %zu)\n",
              spec.name.c_str(), spec.tcp ? "TCP" : "UDP", spec.sizes.size(),
              setup_s, setups.size());
  const net::Addr addr = addr_of(*st->rt, spec.tcp);

  if (!opt.trace) {
    const Counters c0 = read_counters(*st, *st->rt);
    auto cap = capacity_phase(*st, addr, opt.seconds * 0.6, false, opt.seed, 10);
    auto lat = latency_phase(*st, addr, opt.seconds * 0.4, false, opt.seed, 20);
    const Counters c1 = read_counters(*st, *st->rt);
    tally_into(o, *cap);
    tally_into(o, *lat);
    std::printf("capacity: %d clients x %d in flight, %.0f verified calls/s "
                "overall, windows min/median/max %.0f/%.0f/%.0f\n",
                kClients, kWindow, cap->rate(), percentile(cap->window_rate, 0),
                median(cap->window_rate), percentile(cap->window_rate, 1));
    print_latency("latency", *lat);
    print_properties(*st, {cap.get(), lat.get()}, c0, c1);
    std::printf("retransmits %lld, stale replies %lld, fail_ratio %.6f\n",
                static_cast<long long>(sum_of(*cap, &Tally::retransmits) +
                                       sum_of(*lat, &Tally::retransmits)),
                static_cast<long long>(sum_of(*cap, &Tally::stale) +
                                       sum_of(*lat, &Tally::stale)),
                ratio_or_zero(static_cast<double>(o.failed), static_cast<double>(o.attempted)));
    o.add("calls_per_s", median(cap->window_rate), "1/s");
    o.add("cpu_us_per_call", median(cap->window_cpu_us), "us");
    o.add("p50_us", percentile(lat->tallies[0].latency_ns, 0.5) / 1e3, "us");
    o.add("setup_s", setup_s, "s");
    return o;
  }

  // ---- traced run ----
  auto traced_rt = start_runtime(*st->server, spec.tcp, rpc::EventBackend::kEpoll, 1);
  if (!traced_rt) {
    o.attempted = o.failed = 1;
    return o;
  }
  const net::Addr taddr = addr_of(*traced_rt, spec.tcp);
  const double part = opt.seconds / 4;

  const Counters c0 = read_counters(*st, *st->rt);
  auto cap = capacity_phase(*st, addr, part, false, opt.seed, 10);
  const Counters c1 = read_counters(*st, *st->rt);

  st->server->time_handler = true;
  auto tcap = capacity_phase(*st, taddr, part, true, opt.seed, 30);
  auto tlat = latency_phase(*st, taddr, part, true, opt.seed, 40);
  st->server->time_handler = false;
  // Split the server's records by phase through the client id in the
  // xid's high byte.
  std::vector<common::TraceRecord> cap_records, lat_records;
  for (const auto& r : traced_rt->trace_snapshot()) {
    ((r.xid & 0xFF000000u) == tlat->tallies[0].xid_hi ? lat_records : cap_records)
        .push_back(r);
  }
  auto lat = latency_phase(*st, addr, part, false, opt.seed, 20);
  for (const PhaseResult* p : {cap.get(), tcap.get(), tlat.get(), lat.get()}) tally_into(o, *p);

  // Counter deltas span the whole phase, so they are divided by the
  // calls the service served in it; the process clocks span the sampled
  // windows, so they are divided by the calls verified in those.
  const double calls = static_cast<double>(cap->verified);
  const double served = static_cast<double>((c1.fast - c0.fast) + (c1.generic - c0.generic));
  auto per_call = [&](std::int64_t a, std::int64_t b) {
    return ratio_or_zero(static_cast<double>(b - a), served);
  };
  const double p50_ns = percentile(lat->tallies[0].latency_ns, 0.5);

  // Client side: encode/send/decode over the traced capacity phase,
  // wait over the traced open-loop phase.
  std::vector<double> enc, snd, dec, wait;
  std::vector<CallRec> all_recs;
  for (const Tally& t : tcap->tallies) {
    for (const CallRec& r : t.recs) {
      enc.push_back(static_cast<double>(r.enc1 - r.enc0));
      dec.push_back(static_cast<double>(r.done - r.got));
    }
    all_recs.insert(all_recs.end(), t.recs.begin(), t.recs.end());
    if (spec.tcp) {
      for (const CallRec& r : t.recs) snd.push_back(static_cast<double>(r.sent - r.enc1));
    } else {
      snd.insert(snd.end(), t.send_ns.begin(), t.send_ns.end());
    }
  }
  std::unordered_map<std::uint32_t, const common::TraceRecord*> by_xid;
  for (const auto& r : lat_records) by_xid[r.xid] = &r;
  std::vector<double> wire;
  for (const CallRec& r : tlat->tallies[0].recs) {
    wait.push_back(static_cast<double>(r.got - r.sent));
    auto it = by_xid.find(r.xid);
    if (it != by_xid.end()) {
      wire.push_back(static_cast<double>((r.got - r.sent) - it->second->total_ns));
    }
  }
  const std::size_t joined = wire.size();
  all_recs.insert(all_recs.end(), tlat->tallies[0].recs.begin(), tlat->tallies[0].recs.end());
  std::vector<common::TraceRecord> all_server = cap_records;
  all_server.insert(all_server.end(), lat_records.begin(), lat_records.end());
  const std::string span_path = opt.out_dir + "/spans-" + spec.name + "-seed" +
                                std::to_string(opt.seed) + ".jsonl";
  write_spans(span_path, all_recs, all_server, 4000);

  const ServerSummary ss = summarize(cap_records);
  const ServerSummary ls = summarize(lat_records);
  const double stage_sum = ss.stage_sum_p50;
  std::printf("traced: %zu server records under load (%zu open-loop, %zu joined "
              "to client spans by xid); spans -> %s\n",
              ss.records, ls.records, joined, span_path.c_str());
  std::printf("server p50 total %.0f ns, sum of stage p50s %.0f ns; "
              "open-loop total p50 %.0f ns\n",
              ss.total_p50, stage_sum, ls.total_p50);

  std::int64_t attempted = 0, failed = 0;
  const double dispatch_ns = dispatch_pass(*st, opt.seed, &attempted, &failed);
  std::vector<double> share(spec.sizes.size(), 0.0);
  {
    RequestStream mix(spec, opt.seed, 901);
    for (int i = 0; i < 4096; ++i) share[mix.next().shape] += 1.0 / 4096;
  }
  std::int64_t mismatches = 0;
  const TierNs m = marshal_pass(*st, share, &mismatches);
  o.attempted += attempted + 3;
  o.failed += failed + mismatches;

  o.add("client.encode_ns", median(enc), "ns");
  o.add("client.decode_ns", median(dec), "ns");
  o.add("client.send_ns", median(snd), "ns");
  o.add("client.wait_ns", median(wait), "ns");
  std::int64_t retrans = 0, stale = 0, issued = 0;
  for (const PhaseResult* p : {cap.get(), tcap.get(), tlat.get(), lat.get()}) {
    retrans += sum_of(*p, &Tally::retransmits);
    stale += sum_of(*p, &Tally::stale);
    issued += sum_of(*p, &Tally::attempted);
  }
  o.add("client.retransmits",
        ratio_or_zero(static_cast<double>(retrans), static_cast<double>(issued)),
        "1/call");
  o.add("client.stale_replies",
        ratio_or_zero(static_cast<double>(stale), static_cast<double>(issued)),
        "1/call");
  o.add("net.wire_ns", median(wire), "ns");
  add_server_metrics(o, ss);
  o.add("app.handler_ns",
        ratio_or_zero(static_cast<double>(st->server->handler_ns.load()),
              static_cast<double>(st->server->handler_calls.load())),
        "ns");
  o.add("rpc.dispatch_ns", dispatch_ns, "ns");
  o.add("pe.marshal_ns.compiled", m.compiled, "ns");
  o.add("pe.marshal_ns.plan", m.plan, "ns");
  o.add("pe.marshal_ns.generic", m.generic, "ns");
  o.add("marshal_share.compiled", ratio_or_zero(m.compiled, p50_ns), "ratio");
  o.add("marshal_share.plan", ratio_or_zero(m.plan, p50_ns), "ratio");
  o.add("marshal_share.generic", ratio_or_zero(m.generic, p50_ns), "ratio");

  o.add("core.fast_path_share",
        ratio_or_zero(static_cast<double>(c1.fast - c0.fast), served),
        "ratio");
  o.add("core.jit_share", ratio_or_zero(static_cast<double>(c1.jit - c0.jit), served), "ratio");
  o.add("core.cache_hits", per_call(c0.cache.hits, c1.cache.hits), "1/call");
  o.add("core.hot_hits", per_call(c0.cache.hot_hits, c1.cache.hot_hits), "1/call");
  o.add("core.cache_misses", per_call(c0.cache.misses, c1.cache.misses), "1/call");
  o.add("core.evictions", per_call(c0.cache.evictions, c1.cache.evictions), "1/call");
  o.add("rpc.udp_batch_size",
        ratio_or_zero(static_cast<double>(c1.udp_datagrams - c0.udp_datagrams),
              static_cast<double>(c1.udp_batches - c0.udp_batches)),
        "count");
  o.add("rpc.reply_batch_size",
        ratio_or_zero(static_cast<double>(c1.udp_datagrams - c0.udp_datagrams),
              static_cast<double>(c1.reply_batches - c0.reply_batches)),
        "count");
  o.add("rpc.overload_drops", per_call(c0.overload_drops, c1.overload_drops), "1/call");
  o.add("rpc.reply_send_failures",
        per_call(c0.reply_send_failures, c1.reply_send_failures),
        "1/call");
  o.add("rpc.write_stalls", per_call(c0.write_stalls, c1.write_stalls), "1/call");
  o.add("rpc.work_steals", per_call(c0.work_steals, c1.work_steals), "1/call");
  o.add("arena.hit_ratio",
        ratio_or_zero(static_cast<double>(c1.arena.hits - c0.arena.hits),
              static_cast<double>((c1.arena.hits - c0.arena.hits) +
                                  (c1.arena.misses - c0.arena.misses))),
        "ratio");
  o.add("proc.ctx_switches_per_call",
        ratio_or_zero(static_cast<double>(cap->ctx), calls),
        "1/call");
  o.add("proc.client_cpu_us_per_call", ratio_or_zero(cap->client_cpu_s * 1e6, calls), "us");
  o.add("proc.server_cpu_us_per_call",
        ratio_or_zero((cap->cpu_s - cap->client_cpu_s) * 1e6, calls),
        "us");
  o.add("loadgen.late_p99_us", percentile(lat->tallies[0].lateness_ns, 0.99) / 1e3, "us");
  o.add("loadgen.late_max_us", percentile(lat->tallies[0].lateness_ns, 1.0) / 1e3, "us");
  o.add("trace.stage_sum_ratio", ratio_or_zero(stage_sum, ss.total_p50), "ratio");
  o.add("trace.overhead", 1 - ratio_or_zero(tcap->rate(), cap->rate()), "ratio");
  std::printf("untraced %.0f calls/s, traced %.0f calls/s; open-loop p50 %.1f us\n",
              cap->rate(), tcap->rate(), p50_ns / 1e3);
  print_latency("latency", *lat);
  print_properties(*st, {cap.get()}, c0, c1);
  if (!spec.tcp) uring_diagnostic(*st, part, opt.seed, o);
  traced_rt->stop();
  return o;
}

}  // namespace e2e
