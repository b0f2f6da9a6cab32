#include "transport/inproc.h"

#include <atomic>

#include "common/clock.h"
#include "common/queue.h"
#include "obs/instrument.h"

namespace adlp::transport {

namespace {

struct InProcMetrics {
  obs::Counter& tx_bytes = obs::metric::TransportBytes("inproc", "tx");
  obs::Counter& rx_bytes = obs::metric::TransportBytes("inproc", "rx");
  obs::Counter& tx_frames = obs::metric::TransportFrames("inproc", "tx");
  obs::Counter& rx_frames = obs::metric::TransportFrames("inproc", "rx");

  static InProcMetrics& Get() {
    static InProcMetrics m;
    return m;
  }
};

struct TimedMessage {
  Timestamp due_ns;
  Bytes payload;
};

/// One direction of a connection.
struct Pipe {
  ConcurrentQueue<TimedMessage> frames;
  // Set on the receiving end's loop just before its first drain; from then
  // on each push and the close wake that loop. A sender that still reads
  // false pushed before that drain popped (both take `frames`' lock), so the
  // drain delivers its frame.
  std::atomic<bool> async_receiver{false};
};

/// State shared by the two endpoints of one connection.
struct SharedState {
  Pipe a_to_b;
  Pipe b_to_a;
  LinkModel model;
};

class InProcEndpoint final
    : public AsyncChannel,
      public std::enable_shared_from_this<InProcEndpoint> {
 public:
  InProcEndpoint(std::shared_ptr<SharedState> state, Pipe* tx, Pipe* rx,
                 Reactor& reactor, std::size_t loop)
      : AsyncChannel(reactor, loop),
        state_(std::move(state)),
        tx_(tx),
        rx_(rx) {}

  ~InProcEndpoint() override { Close(); }

  bool Send(BytesView payload) override {
    if (payload.size() > kMaxFrameBytes) return false;
    const std::int64_t delay = state_->model.TransferDelayNs(payload.size());
    TimedMessage msg{MonotonicNowNs() + delay,
                     Bytes(payload.begin(), payload.end())};
    const std::size_t size = payload.size();
    if (!tx_->frames.Push(std::move(msg))) return false;
    InProcMetrics::Get().tx_frames.Add(1);
    InProcMetrics::Get().tx_bytes.Add(size);
    WakePeer();
    return true;
  }

  void Close() override {
    tx_->frames.Close();
    rx_->frames.Close();
    WakePeer();
    Wake();
  }

  bool IsOpen() const override { return !tx_->frames.Closed(); }

  std::weak_ptr<InProcEndpoint> peer;  // set once, at pair creation

 private:
  std::shared_ptr<AsyncChannel> Self() override { return shared_from_this(); }

  void WakePeer() {
    if (!tx_->async_receiver.load()) return;
    if (auto end = peer.lock()) end->Wake();
  }

  /// Any thread: schedules a delivery pass on the loop. A no-op before
  /// StartAsync.
  void Wake() {
    if (!rx_->async_receiver.load()) return;
    reactor_.Post(loop_, [weak = weak_from_this()] {
      if (auto self = weak.lock()) self->Drain();
    });
  }

  void DrainQueued() override {
    rx_->async_receiver.store(true);
    Drain();
  }

  // Loop thread only, as is the state below: delivers every frame that is
  // due, oldest first. The queue's head holds back later frames even when
  // they are due sooner, so send order survives the bandwidth model. Ends
  // with the close edge once the connection is closed and drained.
  void Drain() {
    while (!closed()) {
      if (!head_) {
        // Read before the pop: a frame pushed before the close is then seen.
        const bool closing = rx_->frames.Closed();
        head_ = rx_->frames.TryPop();
        if (!head_) {
          if (closing) CloseEdge();
          return;
        }
      }
      const Timestamp now = MonotonicNowNs();
      if (head_->due_ns > now) {
        if (timer_armed_) return;
        timer_armed_ = true;
        // The wheel fires at or after a whole-millisecond deadline, so round
        // up: never early, late by at most one tick.
        const std::int64_t delay_ms =
            (head_->due_ns + 999'999) / 1'000'000 - now / 1'000'000;
        reactor_.RunAfter(loop_, delay_ms, [weak = weak_from_this()] {
          if (auto self = weak.lock()) {
            self->timer_armed_ = false;
            self->Drain();
          }
        });
        return;
      }
      const Bytes payload = std::move(head_->payload);
      head_.reset();
      InProcMetrics::Get().rx_frames.Add(1);
      InProcMetrics::Get().rx_bytes.Add(payload.size());
      Deliver(payload);
    }
  }

  std::shared_ptr<SharedState> state_;
  Pipe* tx_;
  Pipe* rx_;
  bool timer_armed_ = false;
  std::optional<TimedMessage> head_;  // popped, not yet due
};

}  // namespace

InProcChannelPair MakeInProcChannelPair(Reactor& reactor, LinkModel model) {
  const std::size_t loop = reactor.AssignLoop();
  auto state = std::make_shared<SharedState>();
  state->model = model;
  auto a = std::make_shared<InProcEndpoint>(state, &state->a_to_b,
                                            &state->b_to_a, reactor, loop);
  auto b = std::make_shared<InProcEndpoint>(state, &state->b_to_a,
                                            &state->a_to_b, reactor, loop);
  a->peer = b;
  b->peer = a;
  return {std::move(a), std::move(b)};
}

}  // namespace adlp::transport
