// Reactor-driven connection endpoints.
//
// EpollChannel is the one TCP framer: an `AsyncChannel` over a non-blocking
// socket owned by one reactor loop — 4-byte little-endian length preamble,
// `kMaxFrameBytes` cap enforced before allocation. All read parsing and
// every frame and close handler run on that loop thread; writes are
// buffered and flushed opportunistically (EPOLLOUT is armed only while a
// short write leaves residue). Both ends of every TCP connection in the
// tree are one: servers accept on ReactorAcceptor, clients dial TcpConnect,
// which adopts the socket. Frames that arrive before StartAsync() wait in a
// loop-affine queue; afterwards the loop hands each frame to the handler as
// it parses it and reads no further while the handler runs, so TCP flow
// control slows the sender of a busy receiver.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/mutex.h"
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
  /// usable immediately; frames arriving before StartAsync() queue until
  /// it. The reactor must outlive the channel.
  static std::shared_ptr<EpollChannel> Adopt(Reactor& reactor, int fd);

  ~EpollChannel() override;

  /// Enqueues one framed message and flushes as far as the socket allows.
  /// Never blocks: residue waits for EPOLLOUT. Returns false once closed,
  /// or if the peer stalls long enough to accumulate an unreasonable
  /// backlog (the channel then closes, mirroring a dead TCP peer).
  bool Send(BytesView payload) override EXCLUDES(wmu_);

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
  // Frames parsed before StartAsync(); DrainQueued() hands them over.
  std::deque<Bytes> early_;

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
