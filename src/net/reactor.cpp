#include "net/reactor.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <utility>

#include "net/transport.h"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define TEMPO_HAVE_EPOLL 1
#else
#define TEMPO_HAVE_EPOLL 0
#endif

namespace tempo::net {

namespace {

#if TEMPO_HAVE_EPOLL
std::uint32_t to_epoll_mask(unsigned interest) {
  std::uint32_t m = 0;
  if (interest & kEventRead) m |= EPOLLIN;
  if (interest & kEventWrite) m |= EPOLLOUT;
  return m;
}

unsigned from_epoll_mask(std::uint32_t m) {
  unsigned ev = 0;
  if (m & (EPOLLIN | EPOLLHUP | EPOLLERR)) ev |= kEventRead;
  if (m & EPOLLOUT) ev |= kEventWrite;
  if (m & (EPOLLHUP | EPOLLERR)) ev |= kEventError;
  return ev;
}
#endif

unsigned from_poll_mask(short m) {
  unsigned ev = 0;
  if (m & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) ev |= kEventRead;
  if (m & POLLOUT) ev |= kEventWrite;
  if (m & (POLLHUP | POLLERR | POLLNVAL)) ev |= kEventError;
  return ev;
}

short to_poll_mask(unsigned interest) {
  short m = 0;
  if (interest & kEventRead) m |= POLLIN;
  if (interest & kEventWrite) m |= POLLOUT;
  return m;
}

}  // namespace

void Reactor::init_wakeup() {
#if defined(__linux__)
  // eventfd: one fd per reactor instead of a pipe pair, and draining is
  // a single 8-byte counter read.
  int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (efd >= 0) {
    wake_read_fd_ = wake_write_fd_ = efd;
    return;
  }
#endif
  int fds[2];
  if (::pipe(fds) != 0) return;
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  if (!set_fd_nonblocking(wake_read_fd_, true) ||
      !set_fd_nonblocking(wake_write_fd_, true)) {
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
  }
}

void Reactor::init_epoll() {
#if TEMPO_HAVE_EPOLL
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  use_epoll_ = epoll_fd_ >= 0;
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_read_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) != 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
      use_epoll_ = false;
    }
  }
#endif
}

Reactor::Reactor(ReactorBackend backend) {
  init_wakeup();
  if (!ok()) return;
  if (backend != ReactorBackend::kPoll) init_epoll();
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0 && wake_write_fd_ != wake_read_fd_) {
    ::close(wake_write_fd_);
  }
}

bool Reactor::ok() const { return wake_read_fd_ >= 0; }

const char* Reactor::backend() const { return use_epoll_ ? "epoll" : "poll"; }

bool Reactor::add(int fd, unsigned interest, EventFn fn) {
  if (fd < 0 || handlers_.count(fd) != 0) return false;
#if TEMPO_HAVE_EPOLL
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = to_epoll_mask(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }
#endif
  handlers_[fd] = Entry{interest, std::move(fn)};
  return true;
}

bool Reactor::set_interest(int fd, unsigned interest) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
#if TEMPO_HAVE_EPOLL
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = to_epoll_mask(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  }
#endif
  it->second.interest = interest;
  return true;
}

bool Reactor::remove(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
#if TEMPO_HAVE_EPOLL
  if (use_epoll_) {
    // Ignore failure: the caller may have closed the fd already, which
    // removes it from the epoll set implicitly.
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
  handlers_.erase(it);
  return true;
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wakeup();
}

void Reactor::wakeup() {
  // Collapse storms: one pending signal is enough to pop poll_once.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  ssize_t n;
  if (wake_write_fd_ == wake_read_fd_) {
    const std::uint64_t one = 1;  // eventfd counter increment
    do {
      n = ::write(wake_write_fd_, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  } else {
    const char b = 1;
    do {
      n = ::write(wake_write_fd_, &b, 1);
    } while (n < 0 && errno == EINTR);
  }
}

void Reactor::drain_posted() {
  std::vector<std::function<void()>> run;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    run.swap(posted_);
  }
  for (auto& fn : run) fn();
}

void Reactor::drain_wakeup_pipe() {
  // Read BEFORE clearing the flag.  The reverse order loses wakeups: a
  // wakeup() racing between the store and the read writes a byte that
  // the read then consumes, leaving wake_pending_ true with an empty
  // pipe — every later wakeup() would skip its write and a reactor
  // blocked in epoll_wait(-1) would never pop.  With this order, a
  // racer that observes the still-true flag skips the write, and its
  // posted closure is picked up by the drain_posted() that follows
  // every backend_wait().
  //
  // For the eventfd the first read returns the whole 8-byte counter and
  // resets it, so the loop exits after one iteration.
  char buf[64];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
  wake_pending_.store(false, std::memory_order_release);
}

int Reactor::backend_wait(int timeout_ms,
                          std::vector<std::pair<int, unsigned>>* out) {
#if TEMPO_HAVE_EPOLL
  if (use_epoll_) {
    epoll_event events[64];
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return n;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        drain_wakeup_pipe();
        continue;
      }
      out->emplace_back(fd, from_epoll_mask(events[i].events));
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(handlers_.size() + 1);
  pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
  for (const auto& [fd, entry] : handlers_) {
    const short mask = to_poll_mask(entry.interest);
    if (mask != 0) pfds.push_back(pollfd{fd, mask, 0});
  }
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return n;
  if (pfds[0].revents != 0) drain_wakeup_pipe();
  for (std::size_t i = 1; i < pfds.size(); ++i) {
    if (pfds[i].revents != 0) {
      out->emplace_back(pfds[i].fd, from_poll_mask(pfds[i].revents));
    }
  }
  return n;
}

int Reactor::poll_once(int timeout_ms) {
  drain_posted();

  std::vector<std::pair<int, unsigned>> ready;
  const int n = backend_wait(timeout_ms, &ready);
  if (n <= 0 && ready.empty()) {
    // A wakeup() may have carried posted closures.
    drain_posted();
    return 0;
  }

  // Closures posted while we were blocked run before fd dispatch (reply
  // completions should be buffered before new reads are parsed).
  drain_posted();

  int dispatched = 0;
  for (const auto& [fd, events] : ready) {
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed earlier in this batch
    // Copy the callback: the handler may remove itself (erasing the
    // entry) while running.
    EventFn fn = it->second.fn;
    fn(events);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace tempo::net
