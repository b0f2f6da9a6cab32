// Reactor-driven connection endpoints.
//
// EpollChannel is the one TCP framer: a `Channel` over a non-blocking
// socket owned by one reactor loop — 4-byte little-endian length preamble,
// `kMaxFrameBytes` cap enforced before allocation. All read parsing happens
// on that loop thread; writes are buffered and flushed opportunistically
// (EPOLLOUT is armed only while a short write leaves residue). Both ends of
// every TCP connection in the tree are one: servers accept on
// ReactorAcceptor, clients dial TcpConnect, which adopts the socket.
//
// Two delivery styles:
//   * blocking-compat: without StartAsync(), parsed frames queue and
//     Receive() blocks on them — how a client that keeps its own thread
//     (subscription, remote master, sync fetches) reads. The queue is
//     bounded (kReceiveHighWaterBytes), so TCP flow control slows the
//     sender of a reader that falls behind;
//   * async (the AsyncChannel contract, channel.h): StartAsync(on_frame,
//     on_closed) delivers each frame on the loop thread — how every server,
//     every TCP publisher link and every log sink consumes its connections,
//     so no thread blocks per connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/mutex.h"
#include "common/queue.h"
#include "common/thread_annotations.h"
#include "transport/channel.h"
#include "transport/reactor.h"

namespace adlp::transport {

class TcpListener;

class EpollChannel final : public AsyncChannel,
                           public std::enable_shared_from_this<EpollChannel> {
 public:
  /// Takes ownership of a connected socket fd, makes it non-blocking, and
  /// registers it with a round-robin-assigned reactor loop. The channel is
  /// usable immediately; frames arriving before StartAsync() queue for
  /// Receive(). The reactor must outlive the channel.
  static std::shared_ptr<EpollChannel> Adopt(Reactor& reactor, int fd);

  ~EpollChannel() override;

  /// Enqueues one framed message and flushes as far as the socket allows.
  /// Never blocks: residue waits for EPOLLOUT. Returns false once closed,
  /// or if the peer stalls long enough to accumulate an unreasonable
  /// backlog (the channel then closes, mirroring a dead TCP peer).
  bool Send(BytesView payload) override EXCLUDES(wmu_);

  /// Blocking-compat receive; std::nullopt once closed and drained. Only
  /// meaningful before StartAsync() — afterwards frames go to the handler.
  std::optional<Bytes> Receive() override;

  std::size_t PendingSendBytes() const override EXCLUDES(wmu_);

  /// Closes both directions. The loop observes the shutdown and completes
  /// the teardown (handler removal, on_closed) asynchronously; use
  /// WaitClosed() to rendezvous with it. The close edge follows every
  /// teardown — peer EOF, error, Close(), or a protocol violation — with or
  /// without StartAsync(). A torn-down channel's fd is still held until
  /// destruction (never recycled under an in-flight event). Bytes the
  /// socket has not taken yet (PendingSendBytes) are discarded.
  void Close() override;

  bool IsOpen() const override {
    return !closed_.load(std::memory_order_acquire);
  }

  /// Bytes of frames queued for Receive() (each charged a fixed overhead on
  /// top of its payload, so empty frames count too) at which the loop stops
  /// reading the socket. A frame above the mark still queues whole.
  static constexpr std::size_t kReceiveHighWaterBytes = 8u * 1024 * 1024;

 private:
  EpollChannel(Reactor& reactor, int fd, std::size_t loop);

  void Register();
  // Loop-thread-only methods.
  void HandleEvents(std::uint32_t events);
  void ReadReady();
  bool IngestBytes(const std::uint8_t* data, std::size_t n);
  bool ParseFrames();
  void DeliverFrame(BytesView frame);
  void FlushWrites() EXCLUDES(wmu_);
  void TearDown() EXCLUDES(wmu_);
  /// Drops EPOLLIN from the interest mask, or restores it.
  void SetReadPaused(bool paused) EXCLUDES(wmu_);
  /// Any thread: accounts for a frame taken off rq_, and resumes reading
  /// once the queue drains to half the mark.
  void Dequeued(std::size_t cost);
  std::uint32_t InterestLocked() const REQUIRES(wmu_);
  std::shared_ptr<AsyncChannel> Self() override { return shared_from_this(); }
  void DrainQueued() override;

  const int fd_;

  // Read-side state: loop-affine, no lock — every reader and writer of
  // these fields runs on the owning loop's thread (HandleEvents, ReadReady,
  // ParseFrames, DrainQueued, TearDown), which is the reactor pattern the
  // analysis cannot express. Deliberately unannotated.
  Bytes rbuf_;
  std::size_t rpos_ = 0;
  bool torn_down_ = false;

  // Blocking-compat receive queue and its charged bytes: added on the loop
  // before a push, subtracted by whoever pops, so never below the truth.
  ConcurrentQueue<Bytes> rq_;
  std::atomic<std::size_t> rq_bytes_{0};

  // Write-side state, shared between senders and the loop, and the
  // interest mask both sides change.
  mutable Mutex wmu_;
  std::deque<Bytes> wq_ GUARDED_BY(wmu_);
  // Bytes of wq_.front() already written.
  std::size_t wpos_ GUARDED_BY(wmu_) = 0;
  // Total buffered bytes.
  std::size_t wq_bytes_ GUARDED_BY(wmu_) = 0;
  // A flush task or EPOLLOUT will run.
  bool flush_armed_ GUARDED_BY(wmu_) = false;
  // EPOLLOUT currently in the interest mask.
  bool want_write_ GUARDED_BY(wmu_) = false;
  // EPOLLIN dropped from the interest mask: rq_ passed the high-water mark.
  bool read_paused_ GUARDED_BY(wmu_) = false;

  std::atomic<bool> closed_{false};
};

/// Accepts inbound connections on a reactor loop: registers the listener's
/// socket, accepts until EAGAIN per readiness event, and hands each
/// connection to `on_accept` as an adopted EpollChannel.
///
/// On EMFILE/ENFILE the listener is unregistered and re-armed after a short
/// delay via the timer wheel — level-triggered epoll would otherwise spin —
/// so fd exhaustion degrades to deferred accepts instead of a hot loop
/// (connections wait in the kernel backlog).
class ReactorAcceptor {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<EpollChannel>)>;

  /// The listener must outlive the acceptor, which owns the socket's
  /// readiness.
  ReactorAcceptor(Reactor& reactor, TcpListener& listener,
                  AcceptHandler on_accept);
  ~ReactorAcceptor();

  ReactorAcceptor(const ReactorAcceptor&) = delete;
  ReactorAcceptor& operator=(const ReactorAcceptor&) = delete;

  /// Stops accepting. Blocks (bounded) until any batch already dispatched
  /// on the loop has finished, so once Close() returns no accept callback
  /// is executing and the handler's captures may be destroyed.
  void Close();

 private:
  struct State;
  static void AcceptBatch(const std::shared_ptr<State>& state);
  static void Rearm(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
};

}  // namespace adlp::transport
