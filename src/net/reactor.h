// Single-threaded epoll reactor.
//
// All socket I/O for the real broker daemon runs on one reactor thread:
// callbacks for fd readiness, a monotonic-clock timer heap, and one
// cycle-end gather write per connection that queued bytes. Everything
// registered with the reactor is called from run(), so handlers need no
// locking. stop() is safe to call from another thread (it writes an
// eventfd).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace sbroker::net {

class TcpConn;

class Reactor {
 public:
  using IoCallback = std::function<void(uint32_t epoll_events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = uint64_t;

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback fires
  /// with the ready event mask. The reactor does not own the fd.
  void add_fd(int fd, uint32_t events, IoCallback cb);

  /// Changes the interest mask of a registered fd.
  void mod_fd(int fd, uint32_t events);

  /// Unregisters. Safe to call from inside the fd's own callback.
  void del_fd(int fd);

  /// One-shot timer `delay` seconds from now.
  TimerId add_timer(double delay, TimerCallback cb);
  void cancel_timer(TimerId id);

  /// Monotonic seconds (CLOCK_MONOTONIC).
  double now() const;

  /// Processes events until stop(). Must be called from one thread only.
  void run();

  /// Runs at most one epoll wait + dispatch cycle; `timeout_ms` -1 blocks.
  /// Flushes armed outside a cycle run before the wait, so queued bytes are
  /// never stranded behind it. Returns false after stop() was requested.
  bool poll_once(int timeout_ms);

  /// Thread-safe shutdown request.
  void stop();

  /// Thread-safe task handoff: `fn` runs on the reactor thread during its
  /// next dispatch cycle. This is the only way for another thread to touch
  /// state owned by this reactor (the sharded daemon uses it for metric
  /// snapshots and for the round-robin accept fallback).
  void post(std::function<void()> fn);

  /// Parks a closure (typically one owning objects that must not die while
  /// their own callback frame is still on the stack) until the current
  /// dispatch cycle ends; the closure is destroyed, never invoked. ~Reactor
  /// drains the graveyard too, so parked state cannot outlive the reactor —
  /// unlike the old zero-delay-timer trick, which silently leaked whatever
  /// was parked when the reactor stopped before the timer fired.
  void defer_destroy(std::function<void()> fn);

  /// Registers a hook ~Reactor runs for an fd still registered when the
  /// reactor dies (e.g. clients still connected at daemon shutdown). TcpConn
  /// uses it to close its socket and break the conn<->owner shared_ptr cycle
  /// its data callback embodies. Unregister with clear_teardown once the fd
  /// is closed through the normal path.
  void set_teardown(int fd, std::function<void()> fn);
  void clear_teardown(int fd);

 private:
  friend class TcpConn;
  /// Queues `conn` for one flush at the end of the current dispatch cycle
  /// (after fd callbacks, posted tasks and timers; before the graveyard
  /// drains), or before the next epoll_wait when armed outside a cycle.
  /// TcpConn arms this itself on its first queued write of a cycle, so every
  /// connection leaves a wakeup with one gather write however many writers
  /// queued on it. Holding the connection keeps it alive until its flush.
  void flush_at_cycle_end(std::shared_ptr<TcpConn> conn);

  struct Timer {
    double deadline;
    TimerId id;
    bool operator>(const Timer& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return id > other.id;
    }
  };

  void fire_due_timers();
  void drain_posted();
  void drain_graveyard();
  void run_flushes();
  int next_timeout_ms(int default_ms) const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd for stop()
  std::atomic<bool> stopped_{false};
  std::unordered_map<int, IoCallback> io_callbacks_;
  TimerId next_timer_id_ = 1;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::unordered_map<TimerId, TimerCallback> timer_callbacks_;
  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  // The drains swap their queue with a spare that keeps its capacity, so a
  // steady-state cycle allocates nothing.
  std::vector<std::function<void()>> posted_spare_;
  std::vector<std::function<void()>> graveyard_;  ///< deferred destructions
  std::vector<std::function<void()>> graveyard_spare_;
  std::unordered_map<int, std::function<void()>> teardowns_;
  std::vector<std::shared_ptr<TcpConn>> flushes_;  ///< armed cycle-end flushes
};

}  // namespace sbroker::net
