// Epoll reactor: a fixed pool of event-loop threads multiplexing many
// non-blocking connections. It is the only way a TCP connection is driven:
// the node's data listener, MasterService and LogServerService all accept
// and serve on it, so C10k-scale fan-out costs loop wakeups, not threads,
// and every dialled client end is adopted on it too. Every connection
// consumer runs on it: publisher links and subscriptions, in-proc or TCP,
// log sinks (spool pump, acks, reconnect backoff), RemoteMaster's reader
// and the sync client's reply handoff. Handlers run on a loop, so nothing
// that waits for a loop may run on one.
//
// Each loop owns an epoll instance, an eventfd for cross-thread wakeup, and
// a hashed timer wheel for backoff/timeout scheduling. Connections
// (epoll_channel.h) are assigned to loops round-robin at registration and
// stay loop-affine for their lifetime: all read parsing and handler
// dispatch for one connection happens on one loop thread, so per-connection
// state needs no locking against itself.
//
// The ADLP protocol is transport-agnostic (the signed-hash exchange of
// PAPER.md Section IV never looks below the frame layer): a fleet run over
// in-proc channels and the same fleet run over the reactor audit to
// identical reports (EndToEndTest.TcpAndInProcProduceIdenticalAuditReports).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp::transport {

/// Hashed timer wheel: O(1) schedule/cancel, per-tick advance. A pure data
/// structure (the caller supplies the clock), so ordering and lap handling
/// are unit-testable without threads. Callbacks expiring in the same
/// Advance() are returned in deadline order; ties fire in insertion order.
class TimerWheel {
 public:
  using Callback = std::function<void()>;

  /// `tick_ms` is the wheel granularity (timers fire within one tick of
  /// their deadline); `slots` is the wheel size (delays beyond
  /// slots * tick_ms simply take extra laps).
  explicit TimerWheel(std::int64_t tick_ms = 1, std::size_t slots = 256);

  /// Schedules `cb` to fire `delay_ms` after the wheel's current time.
  /// Returns a nonzero id usable with Cancel().
  std::uint64_t Schedule(std::int64_t delay_ms, Callback cb);

  /// Schedules `cb` at an absolute wheel time (same origin as Advance()'s
  /// `now_ms`). Deadlines at or before the current time fire on the next
  /// Advance(). Lets a caller anchor delays at its own clock reading
  /// without advancing the wheel (which would hand it expired callbacks).
  std::uint64_t ScheduleAt(std::int64_t due_ms, Callback cb);

  /// True if the timer existed and was removed before firing.
  bool Cancel(std::uint64_t id);

  /// Advances the wheel to absolute time `now_ms` (monotonic, same origin
  /// as the Schedule() calls' implicit "current time") and returns the
  /// expired callbacks in deadline order.
  std::vector<Callback> Advance(std::int64_t now_ms);

  /// Absolute time the earliest pending timer fires at (its deadline, or the
  /// next tick for one scheduled at or before the current tick), or nullopt
  /// when the wheel is empty. Used to bound the epoll wait.
  std::optional<std::int64_t> NextDeadlineMs() const;

  std::size_t Pending() const { return pending_; }

 private:
  struct Timer {
    std::uint64_t id = 0;
    std::int64_t deadline_tick = 0;
    std::int64_t due_ms = 0;
    Callback cb;
  };

  std::size_t SlotOf(std::int64_t tick) const {
    return static_cast<std::size_t>(tick) % wheel_.size();
  }

  const std::int64_t tick_ms_;
  std::int64_t now_ms_ = 0;
  std::int64_t current_tick_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t pending_ = 0;
  std::vector<std::list<Timer>> wheel_;
};

struct ReactorOptions {
  /// Event-loop threads. 0 = min(4, max(2, hardware_concurrency)).
  std::size_t threads = 0;
};

/// The loop pool. Thread-safe unless noted. One process normally shares a
/// single Reactor (Global()); tests may build private ones.
class Reactor {
 public:
  using Task = std::function<void()>;
  /// Receives the raw epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdHandler = std::function<void(std::uint32_t events)>;

  /// Handle for a scheduled timer; loop-qualified because each loop owns a
  /// private wheel.
  struct TimerId {
    std::size_t loop = 0;
    std::uint64_t id = 0;  // 0 = invalid / never scheduled
  };

  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Shared process-wide instance with the default loop count, started on
  /// first use.
  static Reactor& Global();

  /// Round-robin loop assignment for new connections.
  std::size_t AssignLoop() {
    return next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  }

  /// True when the calling thread is loop `loop`'s thread.
  bool OnLoopThread(std::size_t loop) const;

  /// Runs `task` on the loop thread as soon as possible. If called from
  /// that loop thread, still enqueues (preserving task order) but skips the
  /// eventfd write.
  void Post(std::size_t loop, Task task);

  /// Runs `task` on the loop thread after `delay_ms` (within one wheel
  /// tick). The task is dropped, not run, if the reactor stops first.
  TimerId RunAfter(std::size_t loop, std::int64_t delay_ms, Task task);

  /// Best-effort cancel; returns false if the timer already fired (or was
  /// never valid).
  bool CancelTimer(TimerId id);

  /// Registers `fd` with the loop's epoll instance. `handler` runs on the
  /// loop thread whenever `events` fire. Returns false if the reactor is
  /// stopped or epoll_ctl rejects the fd. The fd must stay open until
  /// RemoveFd; the reactor never closes caller fds.
  bool AddFd(std::size_t loop, int fd, std::uint32_t events, FdHandler handler);

  /// Updates the interest mask of a registered fd.
  void ModFd(std::size_t loop, int fd, std::uint32_t events);

  /// Unregisters `fd`. After RemoveFd returns ON THE LOOP THREAD, the
  /// handler will not run again; from other threads, a dispatch already in
  /// flight may still complete (channels handle this with weak handles).
  void RemoveFd(std::size_t loop, int fd);

  /// Stops all loops and joins their threads. Pending tasks and timers are
  /// dropped before it returns, while every loop is still whole, so what
  /// they capture may call back into the reactor as it dies; registered
  /// fds are left open (their owners close them). Idempotent.
  void Stop();

 private:
  struct Loop;

  void Run(Loop& loop);
  void Wake(Loop& loop);

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace adlp::transport
