#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "net/tcp.h"
#include "util/log.h"

namespace sbroker::net {

Reactor::Reactor() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  add_fd(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t value;
    while (read(wake_fd_, &value, sizeof(value)) > 0) {
    }
  });
}

Reactor::~Reactor() {
  // Connections still registered when the reactor dies hold conn<->owner
  // shared_ptr cycles that nothing else will ever break (their fds will
  // never fire again). Run their teardown hooks first, while every object
  // involved is still fully alive; the hooks close sockets and park the
  // cycle-carrying callbacks in the graveyard.
  std::unordered_map<int, std::function<void()>> teardowns;
  teardowns.swap(teardowns_);
  for (auto& [fd, fn] : teardowns) fn();
  teardowns.clear();
  // An fd callback may own the object it serves (TcpConn::start registers a
  // closure holding the connection's shared_ptr), and that object's
  // destructor calls del_fd(). Detach the maps before destroying the
  // callbacks so those re-entrant erases hit an empty member map instead of
  // the hashtable node currently being torn down. Same for timers: the
  // heads parked by defer-style users may own objects whose destructors
  // call cancel_timer().
  std::unordered_map<int, IoCallback> callbacks;
  callbacks.swap(io_callbacks_);
  callbacks.clear();
  std::unordered_map<TimerId, TimerCallback> timer_callbacks;
  timer_callbacks.swap(timer_callbacks_);
  timer_callbacks.clear();
  std::vector<std::function<void()>> posted;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted.swap(posted_);
  }
  posted.clear();
  // Armed flushes are dropped, never run: the teardown hooks above closed
  // their sockets.
  std::vector<std::shared_ptr<TcpConn>> flushes;
  flushes.swap(flushes_);
  flushes.clear();
  // Destroying the callbacks above may have parked more state; drain last.
  drain_graveyard();
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void Reactor::add_fd(int fd, uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl ADD failed: ") + strerror(errno));
  }
  io_callbacks_[fd] = std::move(cb);
}

void Reactor::mod_fd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl MOD failed: ") + strerror(errno));
  }
}

void Reactor::del_fd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  io_callbacks_.erase(fd);
}

Reactor::TimerId Reactor::add_timer(double delay, TimerCallback cb) {
  TimerId id = next_timer_id_++;
  timers_.push(Timer{now() + (delay < 0 ? 0 : delay), id});
  timer_callbacks_[id] = std::move(cb);
  return id;
}

void Reactor::cancel_timer(TimerId id) { timer_callbacks_.erase(id); }

double Reactor::now() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Reactor::fire_due_timers() {
  double t = now();
  while (!timers_.empty() && timers_.top().deadline <= t) {
    Timer timer = timers_.top();
    timers_.pop();
    auto it = timer_callbacks_.find(timer.id);
    if (it == timer_callbacks_.end()) continue;  // cancelled
    TimerCallback cb = std::move(it->second);
    timer_callbacks_.erase(it);
    cb();
  }
}

int Reactor::next_timeout_ms(int default_ms) const {
  // Skip over cancelled heads conservatively: the heap may hold cancelled
  // entries, waking early for one costs a no-op loop iteration.
  if (timers_.empty()) return default_ms;
  double delta = timers_.top().deadline - now();
  if (delta <= 0) return 0;
  int ms = static_cast<int>(delta * 1000.0) + 1;
  if (default_ms >= 0 && ms > default_ms) return default_ms;
  return ms;
}

void Reactor::defer_destroy(std::function<void()> fn) {
  graveyard_.push_back(std::move(fn));
}

void Reactor::set_teardown(int fd, std::function<void()> fn) {
  teardowns_[fd] = std::move(fn);
}

void Reactor::clear_teardown(int fd) { teardowns_.erase(fd); }

void Reactor::drain_graveyard() {
  // A parked closure's destructor may park more (an owner dying can close
  // further connections); loop until quiescent.
  while (!graveyard_.empty()) {
    graveyard_.swap(graveyard_spare_);
    graveyard_spare_.clear();
  }
}

void Reactor::drain_posted() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.swap(posted_spare_);
  }
  for (auto& task : posted_spare_) task();
  posted_spare_.clear();
}

bool Reactor::poll_once(int timeout_ms) {
  if (stopped_) return false;
  run_flushes();
  epoll_event events[64];
  int n = epoll_wait(epoll_fd_, events, 64, next_timeout_ms(timeout_ms));
  if (n < 0 && errno != EINTR) {
    SBROKER_ERROR("reactor") << "epoll_wait failed: " << strerror(errno);
    return false;
  }
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    auto it = io_callbacks_.find(fd);
    if (it == io_callbacks_.end()) continue;  // removed by a prior callback
    // Copy: the callback may del_fd(fd) and invalidate the map entry.
    IoCallback cb = it->second;
    cb(events[i].events);
  }
  drain_posted();
  fire_due_timers();
  run_flushes();
  drain_graveyard();
  return !stopped_;
}

void Reactor::run() {
  while (poll_once(-1)) {
  }
}

void Reactor::stop() {
  stopped_ = true;
  uint64_t one = 1;
  // Best effort: wake the epoll_wait.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Reactor::flush_at_cycle_end(std::shared_ptr<TcpConn> conn) {
  flushes_.push_back(std::move(conn));
}

void Reactor::run_flushes() {
  // A flush may arm another (a write error closes a backend connection and
  // its requests re-issue on a sibling); the index loop runs those too.
  for (size_t i = 0; i < flushes_.size(); ++i) {
    std::shared_ptr<TcpConn> conn = std::move(flushes_[i]);
    conn->run_armed_flush();
  }
  flushes_.clear();
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

}  // namespace sbroker::net
