// Point-to-point transport abstraction.
//
// ADLP's threat analysis hinges on data transmission being point-to-point
// and thus unobservable to third parties (TCPROS in the paper's prototype).
// An `AsyncChannel` is one reliable, ordered, duplex, message-framed
// connection between exactly one publisher-side link and one
// subscriber-side link. One reactor loop delivers its frames to handlers:
// there is no blocking receive, so no connection owns a thread. A caller
// that must block for a reply (RemoteMaster's RPCs, SyncClient's fetches)
// waits on a ReplySlot that its frame handler fills.
//
// Two implementations:
//   * in-proc (inproc.h) — a pair of in-process queues, deterministic,
//     with an optional latency/bandwidth link model (default for
//     experiments);
//   * EpollChannel (epoll_channel.h) — a loopback TCP socket with the
//     4-byte length preamble, matching the paper's substrate. Both ends of
//     every TCP connection are one: a server end is accepted by a
//     ReactorAcceptor, a client end is dialled by TcpConnect (tcp.h) and
//     adopted on the same reactor.
// FaultInjectingChannel (fault_inject.h) decorates either one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp::transport {

/// Upper bound on a single framed message. A frame length above this is
/// treated as a protocol violation (corrupt or forged preamble): the channel
/// rejects it and closes instead of attempting the allocation. 64 MiB leaves
/// ample headroom over the largest legitimate payload (the ~1 MB camera
/// images of Table I).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

class Reactor;

/// A connection whose frames one reactor loop delivers to handlers. Frames
/// reach the frame handler in send order, on the loop LoopIndex() names;
/// once the connection has closed and the last frame was delivered, the
/// close edge runs the close handler exactly once. The two handlers never
/// run concurrently, and either may Send on the channel. While a handler
/// runs, its loop reads nothing further, so a slow handler slows its
/// sender (for TCP, through flow control) instead of queueing. The handler
/// slot and the close edge live here, shared by every implementation; each
/// supplies the frames.
class AsyncChannel {
 public:
  /// Runs on the loop, once per frame. The view is valid only for the
  /// duration of the call; a handler that keeps the payload must copy it.
  using FrameHandler = std::function<void(BytesView frame)>;
  /// Runs on the loop, exactly once, after the last frame.
  using ClosedHandler = std::function<void()>;

  virtual ~AsyncChannel() = default;

  /// Sends one message (payload only; framing is the channel's concern).
  /// Returns false if the channel is closed. Thread-safe; never waits for
  /// the peer.
  virtual bool Send(BytesView payload) = 0;

  /// Closes both directions. The close edge follows on the loop.
  virtual void Close() = 0;

  virtual bool IsOpen() const = 0;

  /// Starts delivery to the handlers, draining frames that queued before
  /// the call to `on_frame` first, in order. If the connection already
  /// closed, `on_closed` still fires after that drain, so no caller misses
  /// the close edge. Every caller attaches right after it dials, accepts or
  /// pairs the channel. May be called again from inside a
  /// frame handler to replace the handlers — how endpoints switch from
  /// handshake to steady-state processing. Both handlers are released at
  /// the close edge (they may own the channel).
  void StartAsync(FrameHandler on_frame, ClosedHandler on_closed);

  /// Blocks until the close edge has run; false on timeout.
  bool WaitClosed(std::int64_t timeout_ms) const;

  /// Bytes Send() accepted that have not reached the transport yet (for a
  /// socket, the kernel); 0 where Send hands each frame over at once. An
  /// orderly shutdown waits for 0 before it closes: Close() discards them.
  virtual std::size_t PendingSendBytes() const { return 0; }

  /// The reactor loop the handlers run on, and the reactor that owns it.
  std::size_t LoopIndex() const { return loop_; }
  Reactor& OwningReactor() const { return reactor_; }

  AsyncChannel(const AsyncChannel&) = delete;
  AsyncChannel& operator=(const AsyncChannel&) = delete;

 protected:
  AsyncChannel(Reactor& reactor, std::size_t loop);

  /// An owning reference, held by the tasks posted for this channel.
  virtual std::shared_ptr<AsyncChannel> Self() = 0;
  /// Loop thread, on the first StartAsync(): hands the frames that queued
  /// before it to Deliver().
  virtual void DrainQueued() = 0;

  // Loop thread only.
  /// Runs the frame handler, which may replace itself mid-call.
  void Deliver(BytesView frame);
  /// The close edge: releases both handlers, runs the close handler and
  /// releases WaitClosed(). A repeat reaches only handlers attached since.
  void CloseEdge();
  bool async() const { return async_; }
  bool closed() const { return closed_; }

  Reactor& reactor_;
  const std::size_t loop_;

 private:
  void StartAsyncOnLoop(FrameHandler on_frame, ClosedHandler on_closed);

  // Loop-affine, no lock: every reader and writer runs on the owning loop's
  // thread, which is the reactor pattern the analysis cannot express.
  bool async_ = false;
  bool closed_ = false;    // the close edge has run
  bool released_ = false;  // ...and released the current handlers
  FrameHandler on_frame_;
  ClosedHandler on_closed_;
  std::promise<void> closed_promise_;
  std::shared_future<void> closed_done_;
};

using ChannelPtr = std::shared_ptr<AsyncChannel>;

/// One request/reply rendezvous over a channel whose peer answers each
/// request with exactly one reply, in order. Shared by the calling thread
/// and the channel's handlers: the frame handler hands a reply over
/// (Deliver), the close handler fails what waits (Fail). Calls take turns.
class ReplySlot {
 public:
  /// Sends `request` and blocks until its reply, or std::nullopt once the
  /// close edge ran (for every later call too). A positive `deadline_ms`
  /// arms a loop timer that closes the connection unless the reply came
  /// first, so a silent peer fails the call as a dropped one does. Waits
  /// for a loop: never call it on one.
  std::optional<Bytes> Call(const ChannelPtr& channel, BytesView request,
                            std::int64_t deadline_ms = 0) EXCLUDES(mu_);

  /// Loop: hands `frame` to the waiting call; false when none waits.
  bool Deliver(BytesView frame) EXCLUDES(mu_);

  /// Loop, at the close edge.
  void Fail() EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar cv_;
  bool busy_ GUARDED_BY(mu_) = false;     // a call holds the slot
  bool waiting_ GUARDED_BY(mu_) = false;  // ...and its reply is due
  bool failed_ GUARDED_BY(mu_) = false;
  Bytes reply_ GUARDED_BY(mu_);
};

}  // namespace adlp::transport
