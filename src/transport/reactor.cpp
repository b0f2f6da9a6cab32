#include "transport/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <system_error>
#include <unordered_map>

#include "common/clock.h"
#include "obs/instrument.h"

namespace adlp::transport {

// ---------------------------------------------------------------------------
// TimerWheel

TimerWheel::TimerWheel(std::int64_t tick_ms, std::size_t slots)
    : tick_ms_(std::max<std::int64_t>(tick_ms, 1)),
      wheel_(std::max<std::size_t>(slots, 2)) {}

std::uint64_t TimerWheel::Schedule(std::int64_t delay_ms, Callback cb) {
  return ScheduleAt(now_ms_ + std::max<std::int64_t>(delay_ms, 0),
                    std::move(cb));
}

std::uint64_t TimerWheel::ScheduleAt(std::int64_t due_ms, Callback cb) {
  Timer t;
  t.id = next_id_++;
  t.due_ms = std::max(due_ms, now_ms_);
  // Ceiling tick: a timer never fires before its deadline; granularity only
  // delays it by at most one tick.
  t.deadline_tick = (t.due_ms + tick_ms_ - 1) / tick_ms_;
  if (t.deadline_tick <= current_tick_) t.deadline_tick = current_tick_ + 1;
  t.cb = std::move(cb);
  const std::uint64_t id = t.id;
  wheel_[SlotOf(t.deadline_tick)].push_back(std::move(t));
  ++pending_;
  return id;
}

bool TimerWheel::Cancel(std::uint64_t id) {
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --pending_;
        return true;
      }
    }
  }
  return false;
}

std::vector<TimerWheel::Callback> TimerWheel::Advance(std::int64_t now_ms) {
  std::vector<Callback> due;
  if (now_ms <= now_ms_) return due;
  now_ms_ = now_ms;
  const std::int64_t target_tick = now_ms / tick_ms_;
  // A jump longer than one lap (idle wheel, or the first advance from the
  // epoch to monotonic time) would make the tick-by-tick walk arbitrarily
  // long; sweep every slot once instead and sort the expirations.
  if (target_tick - current_tick_ > static_cast<std::int64_t>(wheel_.size()) &&
      pending_ > 0) {
    std::vector<Timer> expired;
    for (auto& slot : wheel_) {
      for (auto it = slot.begin(); it != slot.end();) {
        if (it->deadline_tick <= target_tick) {
          expired.push_back(std::move(*it));
          it = slot.erase(it);
          --pending_;
        } else {
          ++it;
        }
      }
    }
    std::sort(expired.begin(), expired.end(),
              [](const Timer& a, const Timer& b) {
                return a.due_ms != b.due_ms
                           ? a.due_ms < b.due_ms
                           : a.id < b.id;
              });
    for (Timer& t : expired) due.push_back(std::move(t.cb));
    current_tick_ = target_tick;
    return due;
  }
  // Tick-by-tick so callbacks come out in deadline order even when one
  // Advance() covers several ticks (e.g. after a long epoll_wait). A lap
  // skip is safe: entries with a later deadline_tick stay in their slot.
  while (current_tick_ < target_tick && pending_ > 0) {
    ++current_tick_;
    auto& slot = wheel_[SlotOf(current_tick_)];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->deadline_tick <= current_tick_) {
        due.push_back(std::move(it->cb));
        it = slot.erase(it);
        --pending_;
      } else {
        ++it;
      }
    }
  }
  if (pending_ == 0) current_tick_ = target_tick;
  return due;
}

std::optional<std::int64_t> TimerWheel::NextDeadlineMs() const {
  // The loop asks on every iteration; an idle wheel must answer without
  // walking all the slots.
  if (pending_ == 0) return std::nullopt;
  std::optional<std::int64_t> next;
  for (const auto& slot : wheel_) {
    for (const auto& t : slot) {
      const std::int64_t fires_ms = t.deadline_tick * tick_ms_;
      if (!next || fires_ms < *next) next = fires_ms;
    }
  }
  return next;
}

// ---------------------------------------------------------------------------
// Reactor

namespace {

/// Monotonic milliseconds; the common origin for all wheel clocks.
std::int64_t NowMs() { return MonotonicNowNs() / 1'000'000; }

std::size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max<std::size_t>(2, hw));
}

}  // namespace

struct Reactor::Loop {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::atomic<bool> stop{false};

  // Cross-thread state: pending tasks, timer wheel, fd handler table. The
  // mutex is held only for queue/table mutation, never across a callback.
  Mutex mu;
  std::vector<Task> tasks GUARDED_BY(mu);
  TimerWheel wheel GUARDED_BY(mu);
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers GUARDED_BY(mu);
  // Nanosecond stamp of the oldest unserviced wakeup signal (0 = none);
  // feeds the wakeup-latency histogram.
  std::atomic<std::int64_t> wake_signal_ns{0};
};

Reactor::Reactor(ReactorOptions options) {
  const std::size_t n = options.threads > 0 ? options.threads : DefaultThreads();
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      throw std::system_error(errno, std::generic_category(), "epoll_create1");
    }
    loop->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->event_fd < 0) {
      throw std::system_error(errno, std::generic_category(), "eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { Run(*raw); });
  }
}

Reactor::~Reactor() { Stop(); }

Reactor& Reactor::Global() {
  static Reactor instance;
  return instance;
}

bool Reactor::OnLoopThread(std::size_t loop) const {
  return loops_[loop]->thread.get_id() == std::this_thread::get_id();
}

void Reactor::Wake(Loop& loop) {
  std::int64_t expected = 0;
  loop.wake_signal_ns.compare_exchange_strong(expected, MonotonicNowNs(),
                                              std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.event_fd, &one, sizeof(one));  // EAGAIN = already signaled
}

void Reactor::Post(std::size_t loop_idx, Task task) {
  Loop& loop = *loops_[loop_idx];
  {
    MutexLock lock(loop.mu);
    loop.tasks.push_back(std::move(task));
  }
  if (!OnLoopThread(loop_idx)) Wake(loop);
}

Reactor::TimerId Reactor::RunAfter(std::size_t loop_idx, std::int64_t delay_ms,
                                   Task task) {
  Loop& loop = *loops_[loop_idx];
  TimerId id{loop_idx, 0};
  {
    MutexLock lock(loop.mu);
    // Anchor the delay at the caller's clock, not the wheel's last advance
    // (the loop may not have turned for a while).
    id.id = loop.wheel.ScheduleAt(NowMs() + std::max<std::int64_t>(delay_ms, 0),
                                  std::move(task));
  }
  if (!OnLoopThread(loop_idx)) Wake(loop);  // re-bound the epoll timeout
  return id;
}

bool Reactor::CancelTimer(TimerId id) {
  if (id.id == 0 || id.loop >= loops_.size()) return false;
  Loop& loop = *loops_[id.loop];
  MutexLock lock(loop.mu);
  return loop.wheel.Cancel(id.id);
}

bool Reactor::AddFd(std::size_t loop_idx, int fd, std::uint32_t events,
                    FdHandler handler) {
  if (stopped_.load(std::memory_order_acquire)) return false;
  Loop& loop = *loops_[loop_idx];
  {
    MutexLock lock(loop.mu);
    loop.handlers[fd] = std::make_shared<FdHandler>(std::move(handler));
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    MutexLock lock(loop.mu);
    loop.handlers.erase(fd);
    return false;
  }
  obs::metric::ReactorFdsWatched().Add(1);
  return true;
}

void Reactor::ModFd(std::size_t loop_idx, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(loops_[loop_idx]->epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void Reactor::RemoveFd(std::size_t loop_idx, int fd) {
  Loop& loop = *loops_[loop_idx];
  bool removed = false;
  {
    MutexLock lock(loop.mu);
    removed = loop.handlers.erase(fd) > 0;
  }
  if (removed) {
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    obs::metric::ReactorFdsWatched().Sub(1);
  }
}

void Reactor::Run(Loop& loop) {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];

  while (!loop.stop.load(std::memory_order_acquire)) {
    // Wait up to the next timer deadline (-1: none, block until woken).
    // Pending tasks force an immediate pass. The wait is in nanoseconds: a
    // whole-ms timeout would overshoot a deadline by up to a tick, on top of
    // the tick a timer may already wait for its boundary.
    std::int64_t wait_ns = -1;
    {
      MutexLock lock(loop.mu);
      if (!loop.tasks.empty()) {
        wait_ns = 0;
      } else if (auto deadline = loop.wheel.NextDeadlineMs()) {
        wait_ns = std::clamp<std::int64_t>(
            *deadline * 1'000'000 - MonotonicNowNs(), 0, 60'000'000'000);
      }
    }
    const timespec wait{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
    int n = ::epoll_pwait2(loop.epoll_fd, events, kMaxEvents,
                           wait_ns < 0 ? nullptr : &wait, nullptr);
    if (n < 0 && errno == ENOSYS) {
      // Kernels before 5.11: whole milliseconds, rounded up (never a spin).
      n = ::epoll_wait(
          loop.epoll_fd, events, kMaxEvents,
          wait_ns < 0 ? -1 : static_cast<int>((wait_ns + 999'999) / 1'000'000));
    }
    if (n < 0 && errno != EINTR) break;
    obs::metric::ReactorLoopIterations().Add(1);
    if (n > 0) {
      obs::metric::ReactorReadyEvents().Record(static_cast<std::uint64_t>(n));
    }

    // Drain the wakeup eventfd and record signal-to-service latency.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != loop.event_fd) continue;
      std::uint64_t counter = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(loop.event_fd, &counter, sizeof(counter));
      const std::int64_t signal_ns =
          loop.wake_signal_ns.exchange(0, std::memory_order_relaxed);
      if (signal_ns > 0) {
        obs::metric::ReactorWakeupNs().Record(
            static_cast<std::uint64_t>(MonotonicNowNs() - signal_ns));
      }
    }

    // Cross-thread tasks, in posting order.
    std::vector<Task> tasks;
    {
      MutexLock lock(loop.mu);
      tasks.swap(loop.tasks);
    }
    for (Task& task : tasks) task();
    if (loop.stop.load(std::memory_order_acquire)) break;

    // Expired timers, in deadline order.
    std::vector<TimerWheel::Callback> due;
    {
      MutexLock lock(loop.mu);
      due = loop.wheel.Advance(NowMs());
    }
    if (!due.empty()) {
      obs::metric::ReactorTimersFired().Add(due.size());
      for (auto& cb : due) cb();
    }
    if (loop.stop.load(std::memory_order_acquire)) break;

    // Fd events. The handler pointer is re-fetched per event so a handler
    // removed by an earlier callback in this batch never runs stale.
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.event_fd) continue;
      std::shared_ptr<FdHandler> handler;
      {
        MutexLock lock(loop.mu);
        auto it = loop.handlers.find(fd);
        if (it != loop.handlers.end()) handler = it->second;
      }
      if (handler) (*handler)(events[i].events);
    }
  }
}

void Reactor::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    Wake(*loop);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Drop what never ran while every loop is still whole: a dropped closure
  // may own the last reference to a channel, whose destructor calls back
  // into this reactor (RemoveFd) and may post again.
  for (bool dropped = true; dropped;) {
    dropped = false;
    for (auto& loop : loops_) {
      std::vector<Task> tasks;
      std::vector<TimerWheel::Callback> timers;
      {
        MutexLock lock(loop->mu);
        tasks.swap(loop->tasks);
        timers = loop->wheel.Advance(std::numeric_limits<std::int64_t>::max());
      }
      dropped = dropped || !tasks.empty() || !timers.empty();
    }
  }
  for (auto& loop : loops_) {
    MutexLock lock(loop->mu);
    const std::size_t watched = loop->handlers.size();
    if (watched > 0) {
      obs::metric::ReactorFdsWatched().Sub(
          static_cast<std::int64_t>(watched));
      loop->handlers.clear();
    }
    ::close(loop->event_fd);
    ::close(loop->epoll_fd);
  }
}

}  // namespace adlp::transport
