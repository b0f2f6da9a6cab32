#include "transport/epoll_channel.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <utility>

#include "obs/instrument.h"
#include "transport/tcp.h"
#include "wire/wire.h"

namespace adlp::transport {

namespace {

struct EpollMetrics {
  obs::Counter& tx_bytes = obs::metric::TransportBytes("epoll", "tx");
  obs::Counter& rx_bytes = obs::metric::TransportBytes("epoll", "rx");
  obs::Counter& tx_frames = obs::metric::TransportFrames("epoll", "tx");
  obs::Counter& rx_frames = obs::metric::TransportFrames("epoll", "rx");

  static EpollMetrics& Get() {
    static EpollMetrics m;
    return m;
  }
};

/// Backlog cap for a stalled peer. Generously above anything the protocol
/// produces (the ack window bounds publisher in-flight data; log uploads
/// drain steadily): hitting it means the peer is effectively dead, and the
/// channel closes rather than buffering without bound.
constexpr std::size_t kMaxBufferedSendBytes = 256u * 1024 * 1024;

/// Delay before re-arming an acceptor that hit the process fd limit.
constexpr std::int64_t kAcceptRetryMs = 100;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---------------------------------------------------------------------------
// EpollChannel

EpollChannel::EpollChannel(Reactor& reactor, int fd, std::size_t loop)
    : AsyncChannel(reactor, loop), fd_(fd) {}

std::shared_ptr<EpollChannel> EpollChannel::Adopt(Reactor& reactor, int fd) {
  SetNonBlocking(fd);
  const int one = 1;
  // Harmless failure on non-TCP fds (socketpair in tests).
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::shared_ptr<EpollChannel> channel(
      new EpollChannel(reactor, fd, reactor.AssignLoop()));
  channel->Register();
  return channel;
}

void EpollChannel::Register() {
  std::weak_ptr<EpollChannel> weak = weak_from_this();
  const bool ok =
      reactor_.AddFd(loop_, fd_, EPOLLIN, [weak](std::uint32_t events) {
        // The lock keeps the channel alive across the whole dispatch, so
        // TearDown / user callbacks may drop external references freely.
        if (auto self = weak.lock()) self->HandleEvents(events);
      });
  if (!ok) {
    // Reactor stopped or epoll rejected the fd: surface as a dead channel.
    // No loop task exists yet, so this thread may run the close edge.
    closed_.store(true, std::memory_order_release);
    CloseEdge();
  }
}

EpollChannel::~EpollChannel() {
  Close();
  // Safe from any thread: an in-flight dispatch re-fetches the handler
  // under the loop lock and holds only a weak reference to this channel,
  // so after RemoveFd nothing can reach the fd. A stale readiness event
  // for a recycled fd number lands on the new owner's handler, which
  // level-triggered re-checks make harmless.
  reactor_.RemoveFd(loop_, fd_);
  ::close(fd_);
}

bool EpollChannel::Send(BytesView payload) {
  if (closed_.load(std::memory_order_acquire)) return false;
  // Preamble on the stack, encoded exactly as wire::FramePayload does
  // (little-endian length), so the fast path below never materializes the
  // framed buffer at all.
  std::uint8_t pre[wire::kFramePreambleSize];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < sizeof(pre); ++i) {
    pre[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  const std::size_t total = sizeof(pre) + payload.size();
  bool need_flush = false;
  bool overflow = false;
  {
    MutexLock lock(wmu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    if (wq_.empty() && !want_write_) {
      // Fast path: nothing buffered, so write straight from the caller's
      // memory (gathered preamble + payload) and allocate only if a short
      // write leaves residue. At steady state this is the only send path.
      std::size_t done = 0;
      bool hard_error = false;
      while (done < total) {
        iovec iov[2];
        int iov_count = 0;
        if (done < sizeof(pre)) {
          iov[iov_count++] = {pre + done, sizeof(pre) - done};
          if (!payload.empty()) {
            iov[iov_count++] = {const_cast<std::uint8_t*>(payload.data()),
                                payload.size()};
          }
        } else {
          const std::size_t off = done - sizeof(pre);
          iov[iov_count++] = {const_cast<std::uint8_t*>(payload.data()) + off,
                              payload.size() - off};
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(iov_count);
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n >= 0) {
          done += static_cast<std::size_t>(n);
          EpollMetrics::Get().tx_bytes.Add(static_cast<std::uint64_t>(n));
          continue;
        }
        if (errno == EINTR) continue;
        // EAGAIN: residue waits for EPOLLOUT. Hard errors also queue the
        // residue, but with a flush scheduled so the loop thread re-hits
        // the error and runs the full teardown path.
        hard_error = !(errno == EAGAIN || errno == EWOULDBLOCK);
        break;
      }
      if (done == total) {
        EpollMetrics::Get().tx_frames.Add(1);
        return true;
      }
      Bytes rest;
      rest.reserve(total - done);
      if (done < sizeof(pre)) {
        rest.insert(rest.end(), pre + done, pre + sizeof(pre));
        rest.insert(rest.end(), payload.begin(), payload.end());
      } else {
        rest.insert(rest.end(), payload.begin() +
                        static_cast<std::ptrdiff_t>(done - sizeof(pre)),
                    payload.end());
      }
      wq_bytes_ += rest.size();
      wq_.push_back(std::move(rest));
      flush_armed_ = true;
      if (hard_error) {
        need_flush = true;
      } else if (!want_write_) {
        want_write_ = true;
        reactor_.ModFd(loop_, fd_, InterestLocked());
      }
    } else {
      Bytes frame = wire::FramePayload(payload);
      if (wq_bytes_ + frame.size() > kMaxBufferedSendBytes) {
        overflow = true;
      } else {
        wq_bytes_ += frame.size();
        wq_.push_back(std::move(frame));
        need_flush = !flush_armed_;
        flush_armed_ = true;
      }
    }
  }
  if (overflow) {
    Close();
    return false;
  }
  if (need_flush) {
    if (reactor_.OnLoopThread(loop_)) {
      FlushWrites();
    } else {
      std::weak_ptr<EpollChannel> weak = weak_from_this();
      reactor_.Post(loop_, [weak] {
        if (auto self = weak.lock()) self->FlushWrites();
      });
    }
  }
  return true;
}

std::size_t EpollChannel::PendingSendBytes() const {
  MutexLock lock(wmu_);
  return wq_bytes_;
}

void EpollChannel::Close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    // Shutdown only: the loop observes EOF/HUP and runs TearDown; the fd
    // number stays allocated until destruction, so an event still in
    // flight never reaches a recycled number.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void EpollChannel::DrainQueued() {
  // Frames that arrived before the handler attached drain first, in order.
  while (!early_.empty()) {
    const Bytes frame = std::move(early_.front());
    early_.pop_front();
    Deliver(frame);
  }
}

std::uint32_t EpollChannel::InterestLocked() const {
  return EPOLLIN | (want_write_ ? std::uint32_t{EPOLLOUT} : 0u);
}

void EpollChannel::HandleEvents(std::uint32_t events) {
  if (torn_down_) return;
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) ReadReady();
  if (torn_down_) return;
  if (events & EPOLLOUT) FlushWrites();
}

void EpollChannel::ReadReady() {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      EpollMetrics::Get().rx_bytes.Add(static_cast<std::uint64_t>(n));
      if (!IngestBytes(buf, static_cast<std::size_t>(n))) {
        return;  // torn down (violation or handler close)
      }
      // A short read usually means the socket is drained; if more data
      // raced in, level-triggered epoll reports it on the next pass.
      if (n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n == 0) {  // orderly shutdown
      TearDown();
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    TearDown();
    return;
  }
}

bool EpollChannel::IngestBytes(const std::uint8_t* data, std::size_t n) {
  // Fast path: no partial frame pending, so parse complete frames straight
  // out of the caller's stack buffer — rbuf_ is touched only to stash a
  // trailing partial frame. At steady state (frames arriving whole) the
  // read side does zero heap traffic per frame.
  if (!rbuf_.empty()) {
    rbuf_.insert(rbuf_.end(), data, data + n);
    return ParseFrames();
  }
  std::size_t pos = 0;
  while (n - pos >= wire::kFramePreambleSize) {
    const std::uint32_t len = wire::ParseFrameLength(
        BytesView(data + pos, wire::kFramePreambleSize));
    if (len > kMaxFrameBytes) {
      // Corrupt or forged preamble: the stream offset is unrecoverable.
      TearDown();
      return false;
    }
    if (n - pos < wire::kFramePreambleSize + len) break;
    pos += wire::kFramePreambleSize;
    EpollMetrics::Get().rx_frames.Add(1);
    DeliverFrame(BytesView(data + pos, len));
    if (torn_down_) return false;
    pos += len;
  }
  if (pos < n) rbuf_.assign(data + pos, data + n);
  return true;
}

bool EpollChannel::ParseFrames() {
  while (true) {
    const std::size_t avail = rbuf_.size() - rpos_;
    if (avail < wire::kFramePreambleSize) break;
    const std::uint32_t len = wire::ParseFrameLength(
        BytesView(rbuf_.data() + rpos_, wire::kFramePreambleSize));
    if (len > kMaxFrameBytes) {
      // Corrupt or forged preamble: the stream offset is unrecoverable.
      TearDown();
      return false;
    }
    if (avail < wire::kFramePreambleSize + len) break;
    rpos_ += wire::kFramePreambleSize;
    EpollMetrics::Get().rx_frames.Add(1);
    // The view aliases rbuf_; handlers never touch the read side, and the
    // compaction below happens only after delivery returns.
    DeliverFrame(BytesView(rbuf_.data() + rpos_, len));
    if (torn_down_) return false;
    rpos_ += len;
  }
  // Compact: the residue is at most one partial frame.
  if (rpos_ > 0) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<std::ptrdiff_t>(rpos_));
    rpos_ = 0;
  }
  return true;
}

void EpollChannel::DeliverFrame(BytesView frame) {
  if (async()) {
    Deliver(frame);
  } else {
    early_.emplace_back(frame.begin(), frame.end());
  }
}

void EpollChannel::FlushWrites() {
  MutexLock lock(wmu_);
  if (torn_down_) return;
  while (!wq_.empty()) {
    const Bytes& front = wq_.front();
    const ssize_t n = ::send(fd_, front.data() + wpos_, front.size() - wpos_,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      wpos_ += static_cast<std::size_t>(n);
      EpollMetrics::Get().tx_bytes.Add(static_cast<std::uint64_t>(n));
      if (wpos_ == front.size()) {
        wq_bytes_ -= front.size();
        wq_.pop_front();
        wpos_ = 0;
        EpollMetrics::Get().tx_frames.Add(1);
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Residue: let EPOLLOUT resume the flush.
      flush_armed_ = true;
      if (!want_write_) {
        want_write_ = true;
        reactor_.ModFd(loop_, fd_, InterestLocked());
      }
      return;
    }
    lock.Unlock();
    TearDown();
    return;
  }
  flush_armed_ = false;
  if (want_write_) {
    want_write_ = false;
    reactor_.ModFd(loop_, fd_, InterestLocked());
  }
}

void EpollChannel::TearDown() {
  if (torn_down_) return;
  torn_down_ = true;
  closed_.store(true, std::memory_order_release);
  reactor_.RemoveFd(loop_, fd_);
  {
    MutexLock lock(wmu_);
    wq_.clear();
    wq_bytes_ = 0;
  }
  CloseEdge();
}

// ---------------------------------------------------------------------------
// ReactorAcceptor

struct ReactorAcceptor::State {
  Reactor& reactor;
  std::size_t loop;
  int fd;
  AcceptHandler on_accept;
  std::atomic<bool> closed{false};

  State(Reactor& r, std::size_t l, int f, AcceptHandler cb)
      : reactor(r), loop(l), fd(f), on_accept(std::move(cb)) {}
};

ReactorAcceptor::ReactorAcceptor(Reactor& reactor, TcpListener& listener,
                                 AcceptHandler on_accept) {
  const int fd = listener.NativeHandle();
  SetNonBlocking(fd);
  state_ = std::make_shared<State>(reactor, reactor.AssignLoop(), fd,
                                   std::move(on_accept));
  auto state = state_;
  reactor.AddFd(state->loop, fd, EPOLLIN,
                [state](std::uint32_t) { AcceptBatch(state); });
}

ReactorAcceptor::~ReactorAcceptor() { Close(); }

void ReactorAcceptor::Close() {
  if (state_->closed.exchange(true)) return;
  state_->reactor.RemoveFd(state_->loop, state_->fd);
  if (!state_->reactor.OnLoopThread(state_->loop)) {
    // Barrier: a batch dispatched before RemoveFd may still be running on
    // the loop. Tasks run before fd dispatch in each loop pass and the loop
    // is single-threaded, so once this task executes no batch is in flight.
    // Bounded wait in case the reactor stopped (then tasks are dropped).
    auto done = std::make_shared<std::promise<void>>();
    auto barrier = done->get_future();
    state_->reactor.Post(state_->loop, [done] { done->set_value(); });
    barrier.wait_for(std::chrono::seconds(2));
  }
}

void ReactorAcceptor::AcceptBatch(const std::shared_ptr<State>& state) {
  if (state->closed.load(std::memory_order_acquire)) return;
  while (true) {
    const int cfd =
        ::accept4(state->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd >= 0) {
      auto channel = EpollChannel::Adopt(state->reactor, cfd);
      if (state->on_accept) state->on_accept(std::move(channel));
      if (state->closed.load(std::memory_order_acquire)) return;
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE) {
      // fd exhaustion: pause the listener (level-triggered epoll would
      // spin) and retry shortly; pending connections wait in the kernel
      // backlog rather than crashing the process.
      obs::metric::ReactorAcceptDeferredTotal().Add(1);
      state->reactor.RemoveFd(state->loop, state->fd);
      state->reactor.RunAfter(state->loop, kAcceptRetryMs,
                              [state] { Rearm(state); });
      return;
    }
    // Fatal (listener shut down, EBADF, ...): unregister so the readiness
    // condition cannot spin the loop.
    state->reactor.RemoveFd(state->loop, state->fd);
    return;
  }
}

void ReactorAcceptor::Rearm(const std::shared_ptr<State>& state) {
  if (state->closed.load(std::memory_order_acquire)) return;
  state->reactor.AddFd(state->loop, state->fd, EPOLLIN,
                       [state](std::uint32_t) { AcceptBatch(state); });
  // Connections may have queued while paused; run a batch immediately
  // rather than waiting for the next edge of readiness reporting.
  AcceptBatch(state);
}

}  // namespace adlp::transport
