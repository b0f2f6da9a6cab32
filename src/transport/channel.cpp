#include "transport/channel.h"

#include <utility>

#include "transport/reactor.h"

namespace adlp::transport {

AsyncChannel::AsyncChannel(Reactor& reactor, std::size_t loop)
    : reactor_(reactor),
      loop_(loop),
      closed_done_(closed_promise_.get_future()) {}

void AsyncChannel::StartAsync(FrameHandler on_frame, ClosedHandler on_closed) {
  auto task = [self = Self(), f = std::move(on_frame),
               c = std::move(on_closed)]() mutable {
    self->StartAsyncOnLoop(std::move(f), std::move(c));
  };
  if (reactor_.OnLoopThread(loop_)) {
    task();
  } else {
    reactor_.Post(loop_, std::move(task));
  }
}

bool AsyncChannel::WaitClosed(std::int64_t timeout_ms) const {
  return closed_done_.wait_for(std::chrono::milliseconds(timeout_ms)) ==
         std::future_status::ready;
}

void AsyncChannel::StartAsyncOnLoop(FrameHandler on_frame,
                                    ClosedHandler on_closed) {
  // Keep the replaced handlers alive until this call returns: endpoints swap
  // handlers from *inside* a frame callback, and the old closure's captures
  // must outlive its still-running body.
  FrameHandler old_frame = std::exchange(on_frame_, std::move(on_frame));
  ClosedHandler old_closed = std::exchange(on_closed_, std::move(on_closed));
  released_ = false;
  if (!std::exchange(async_, true)) DrainQueued();
  // The connection closed before (or while) these handlers attached: give
  // them the close edge too.
  if (closed_) CloseEdge();
}

void AsyncChannel::Deliver(BytesView frame) {
  // Move the handler out while it runs: it may replace itself mid-call, and
  // assigning over the std::function whose body is executing would destroy
  // live captures. Copying it instead would heap-allocate once per frame.
  FrameHandler handler = std::move(on_frame_);
  if (handler) handler(frame);
  // Restore unless replaced mid-call, or released by a close edge the
  // handler's own send triggered.
  if (!on_frame_ && !released_) on_frame_ = std::move(handler);
}

void AsyncChannel::CloseEdge() {
  const bool first = !std::exchange(closed_, true);
  released_ = true;
  // Release both handlers: they routinely capture owning references back to
  // the channel (or to link state holding it), and leaving them set would
  // cycle-leak the connection.
  on_frame_ = nullptr;
  auto on_closed = std::exchange(on_closed_, nullptr);
  if (on_closed) on_closed();
  if (first) closed_promise_.set_value();
}

std::optional<Bytes> ReplySlot::Call(const ChannelPtr& channel,
                                     BytesView request,
                                     std::int64_t deadline_ms) {
  MutexLock lock(mu_);
  while (busy_ && !failed_) cv_.Wait(lock);
  if (failed_) return std::nullopt;
  busy_ = waiting_ = true;
  lock.Unlock();  // the reply may reach Deliver before Send returns
  Reactor::TimerId deadline;
  if (!channel->Send(request)) {
    channel->Close();  // its close edge fails the call
  } else if (deadline_ms > 0) {
    deadline = channel->OwningReactor().RunAfter(
        channel->LoopIndex(), deadline_ms,
        [weak = std::weak_ptr<AsyncChannel>(channel)] {
          if (auto late = weak.lock()) late->Close();
        });
  }
  lock.Lock();
  while (waiting_ && !failed_) cv_.Wait(lock);
  std::optional<Bytes> reply;
  if (!waiting_) reply = std::move(reply_);
  busy_ = waiting_ = false;
  lock.Unlock();
  cv_.NotifyAll();
  channel->OwningReactor().CancelTimer(deadline);
  return reply;
}

bool ReplySlot::Deliver(BytesView frame) {
  {
    MutexLock lock(mu_);
    if (!waiting_) return false;
    reply_.assign(frame.begin(), frame.end());
    waiting_ = false;
  }
  cv_.NotifyAll();
  return true;
}

void ReplySlot::Fail() {
  {
    MutexLock lock(mu_);
    failed_ = true;
  }
  cv_.NotifyAll();
}

}  // namespace adlp::transport
