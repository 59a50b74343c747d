// Reactor — single-threaded fd readiness dispatcher (epoll on Linux,
// poll(2) everywhere).
//
// The concurrent server runtime of PR 1 spends one blocking thread per
// listener and one worker per in-flight TCP connection; a slow peer pins
// a worker for the lifetime of its connection.  The reactor inverts
// that: every socket is non-blocking and registered here with an
// interest mask, and one thread multiplexes all of them — the classic
// svc_run/select shape of Sun RPC, upgraded to epoll scale.
//
// Backends:
//   * epoll — the Linux default; one epoll_wait per burst.
//   * poll  — portable fallback (used when epoll_create fails), also
//     selectable for tests.
//
// Threading contract: add/set_interest/remove/poll_once must all run on
// the reactor thread (the thread that calls poll_once in a loop).  The
// only thread-safe entry points are post() and wakeup(): any thread may
// hand the reactor a closure, which runs on the reactor thread before
// the next readiness dispatch.  This keeps handler state lock-free.
//
// Handlers may remove (and close) their own fd or any other fd while a
// dispatch batch is in flight; the dispatcher re-checks registration
// before each callback, so a handler never fires for an fd removed
// earlier in the same batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace tempo::net {

// Interest / readiness bits (a mask, not an enum class, so handlers can
// test `events & kEventRead` without casts).
inline constexpr unsigned kEventRead = 1u;
inline constexpr unsigned kEventWrite = 2u;
// Delivered (never requested): the peer hung up or the fd errored.
// Always paired with kEventRead so stream handlers observe EOF.
inline constexpr unsigned kEventError = 4u;

// Receives the readiness mask for one fd.
using EventFn = std::function<void(unsigned events)>;

enum class ReactorBackend {
  kAuto,   // epoll, falling back to poll(2) when epoll_create fails
  kEpoll,  // the same as kAuto
  kPoll,   // portable poll(2)
};

class Reactor {
 public:
  explicit Reactor(ReactorBackend backend);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  bool ok() const;
  const char* backend() const;  // "epoll" or "poll"

  // Registers `fd` for the given interest mask.  The reactor does NOT
  // own the fd; the caller closes it after remove().
  bool add(int fd, unsigned interest, EventFn fn);
  // Replaces the interest mask (e.g. enable kEventWrite while a reply
  // is buffered, drop it once drained).
  bool set_interest(int fd, unsigned interest);
  bool remove(int fd);

  // Runs posted closures, then dispatches ready fds.  Blocks up to
  // timeout_ms (-1 = until an event or wakeup()).  Returns the number
  // of fd events dispatched (0 on timeout / wakeup-only).
  int poll_once(int timeout_ms);

  // Thread-safe: queue `fn` to run on the reactor thread and wake it.
  void post(std::function<void()> fn);
  // Thread-safe: make a blocked poll_once return promptly.
  void wakeup();

  std::size_t watched_fds() const { return handlers_.size(); }

 private:
  struct Entry {
    unsigned interest = 0;
    EventFn fn;
  };

  void init_wakeup();
  void init_epoll();
  void drain_posted();
  void drain_wakeup_pipe();
  int backend_wait(int timeout_ms, std::vector<std::pair<int, unsigned>>* out);

  bool use_epoll_ = false;
  int epoll_fd_ = -1;
  // With the Linux eventfd wakeup these are the SAME fd (one fd per
  // shard, 8-byte counter reads); the portable pipe keeps them distinct.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::unordered_map<int, Entry> handlers_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> wake_pending_{false};
};

}  // namespace tempo::net
