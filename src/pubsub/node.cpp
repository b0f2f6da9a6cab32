#include "pubsub/node.h"

#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/queue.h"
#include "obs/instrument.h"
#include "pubsub/handshake.h"
#include "transport/epoll_channel.h"
#include "transport/reactor.h"
#include "wire/wire.h"

namespace adlp::pubsub {

namespace {

/// In-flight publications with pending-ACK accounting that survives early
/// exits: the destructor releases whatever is still outstanding so the
/// process-wide gauge never drifts when a link dies mid-conversation.
struct InFlightQueue {
  struct Item {
    EncodedPublicationPtr pub;
    Timestamp sent_ns;
  };
  std::deque<Item> items;

  ~InFlightQueue() {
    if (!items.empty()) {
      obs::metric::PendingAcks().Sub(static_cast<std::int64_t>(items.size()));
    }
  }

  void PushSent(EncodedPublicationPtr pub) {
    items.push_back({std::move(pub), MonotonicNowNs()});
    obs::metric::PendingAcks().Add(1);
  }

  void PopAcked() {
    obs::metric::AckReceivedTotal().Add(1);
    obs::metric::AckRttNs().Record(
        static_cast<std::uint64_t>(MonotonicNowNs() - items.front().sent_ns));
    obs::TraceLog::Global().Record(obs::TraceKind::kAckReceived,
                                   items.front().pub->message.header.topic,
                                   items.front().pub->message.header.seq);
    items.pop_front();
    obs::metric::PendingAcks().Sub(1);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Publisher link: one connection per subscriber, held as an event-driven
// state machine on the channel's reactor loop: send up to ack_window, gate
// on ACKs, drain on close. In-proc and TCP links alike; no link owns a
// thread. Shared-owned so a pump task that fires after teardown finds live
// state.

struct Publisher::Link : public std::enable_shared_from_this<Link> {
  std::shared_ptr<transport::AsyncChannel> channel;
  std::unique_ptr<PublisherLinkProtocol> proto;
  ConcurrentQueue<EncodedPublicationPtr> queue;
  std::size_t ack_window = 1;
  std::size_t max_queue = std::numeric_limits<std::size_t>::max();
  transport::Reactor* reactor = nullptr;
  // The owning node's CPU account: loop work is billed there.
  std::atomic<Timestamp>* cpu_acc = nullptr;
  std::atomic<std::uint64_t> dropped{0};

  InFlightQueue in_flight;  // loop thread only
  std::atomic<bool> pump_armed{false};
  std::atomic<bool> done{false};    // written on the loop thread only
  std::atomic<bool> closed{false};  // the close edge has run

  /// Any-thread: enqueue a publication (false = per-link queue full).
  bool Offer(EncodedPublicationPtr pub) {
    if (queue.Size() >= max_queue) return false;
    if (queue.Push(std::move(pub))) KickPump();
    return true;
  }

  /// False once the subscriber left or the link gave up on the connection.
  bool Live() const {
    return !done.load(std::memory_order_acquire) && channel->IsOpen();
  }

  /// Any-thread: schedule a pump pass, coalescing bursts into one task.
  void KickPump() {
    if (pump_armed.exchange(true, std::memory_order_acq_rel)) return;
    reactor->Post(channel->LoopIndex(), [self = shared_from_this()] {
      self->pump_armed.store(false, std::memory_order_release);
      self->Charged([&] { self->Pump(); });
    });
  }

  /// Loop thread: the frame handler. ACKs arrive in order on the FIFO
  /// channel, so the front of the in-flight queue is the one being acked.
  void OnFrame(BytesView frame) {
    Charged([&] {
      if (in_flight.items.empty()) return;  // unexpected: drop
      proto->OnAck(*in_flight.items.front().pub, frame);
      in_flight.PopAcked();
      Pump();
    });
  }

  /// Loop thread: the connection ended or the link drained. A finished
  /// link takes no further publication.
  void Finish() {
    done.store(true, std::memory_order_release);
    queue.Close();
    while (queue.TryPop()) {
    }
  }

  /// Grace period: let the link drain queued publications and collect the
  /// ACKs still owed, so cleanly-shutdown systems log complete pairs. A
  /// non-cooperative subscriber that withholds ACKs only costs us this
  /// bounded wait. Then rendezvous with the loop's teardown so no handler
  /// still runs when the caller proceeds to destroy node state.
  void Shutdown() {
    queue.Close();
    KickPump();  // let the pump observe the closed queue
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    channel->Close();
    channel->WaitClosed(2000);
  }

 private:
  /// Runs one loop entry point, charging its CPU to the node. A finished
  /// link does nothing: its node may already be gone.
  template <typename Work>
  void Charged(Work&& work) {
    if (done.load(std::memory_order_acquire)) return;
    ThreadCpuTracker cpu(cpu_acc);
    work();
  }

  /// Send while the ACK window has room; detect completion.
  void Pump() {
    while (true) {
      // ACK gating: with window W, at most W outstanding messages. The
      // paper's scheme is W = 1 — publication seq+1 waits for the ACK of seq.
      if (proto->ExpectsAck() && in_flight.items.size() >= ack_window) break;
      auto pub = queue.TryPop();
      if (!pub) break;
      if (!channel->Send((*pub)->wire)) {
        Finish();
        return;
      }
      proto->OnSent(**pub);
      if (proto->ExpectsAck()) in_flight.PushSent(std::move(*pub));
    }
    if (queue.Closed() && queue.Size() == 0 && in_flight.items.empty()) {
      Finish();
    }
  }
};

Publisher::Publisher(Node* node, std::string topic)
    : node_(node), topic_(std::move(topic)) {}

std::uint64_t Publisher::Publish(Bytes payload) {
  // Serialize publications so sequence numbers and link-queue order agree.
  MutexLock publish_lock(publish_mu_);

  Message msg;
  msg.header.topic = topic_;
  msg.header.publisher = node_->Name();
  msg.header.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  msg.header.stamp = node_->clock().Now();
  msg.payload = std::move(payload);
  const std::uint64_t seq = msg.header.seq;

  // Hash/signature computed once per publication, shared by all links. The
  // encode cost runs on the caller's thread; attribute it to this node.
  const Timestamp encode_start = ThreadCpuNowNs();
  const Timestamp encode_wall_start = MonotonicNowNs();
  EncodedPublicationPtr encoded = node_->protocol().Encode(std::move(msg));
  obs::metric::PublishEncodeNs().Record(
      static_cast<std::uint64_t>(MonotonicNowNs() - encode_wall_start));
  node_->cpu_ns_.fetch_add(ThreadCpuNowNs() - encode_start,
                           std::memory_order_relaxed);
  obs::metric::PublishTotal().Add(1);
  obs::TraceLog::Global().Record(obs::TraceKind::kPublish, topic_, seq);

  // A link whose subscriber left is retired, not fed: it would otherwise
  // hold every later publication until Shutdown. Retiring only closes it:
  // Publish may run on a loop (in a subscription callback), maybe the
  // link's own, so it must not wait for the close edge. The link stays
  // owned here until that edge has run; Shutdown waits for the rest.
  MutexLock lock(links_mu_);
  std::erase_if(retired_, [](const auto& link) {
    return link->closed.load(std::memory_order_acquire);
  });
  for (auto& link : links_) {
    if (!link->Live()) {
      retired_dropped_ += link->dropped.load(std::memory_order_relaxed);
      link->channel->Close();
      retired_.push_back(std::move(link));
    } else if (!link->Offer(encoded)) {
      link->dropped.fetch_add(1, std::memory_order_relaxed);
      obs::metric::PublishQueueDropTotal().Add(1);
    }
  }
  std::erase(links_, nullptr);
  return seq;
}

std::size_t Publisher::LiveLinksLocked() const {
  std::size_t live = 0;
  for (const auto& link : links_) live += link->Live() ? 1 : 0;
  return live;
}

std::size_t Publisher::SubscriberCount() const {
  MutexLock lock(links_mu_);
  return LiveLinksLocked();
}

bool Publisher::WaitForSubscribers(std::size_t count,
                                   std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(links_mu_);
  while (LiveLinksLocked() < count) {
    if (links_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      return LiveLinksLocked() >= count;
    }
  }
  return true;
}

std::uint64_t Publisher::DroppedCount() const {
  MutexLock lock(links_mu_);
  std::uint64_t total = retired_dropped_;
  for (const auto& link : links_) {
    total += link->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Publisher::AddLink(const crypto::ComponentId& subscriber,
                        std::shared_ptr<transport::AsyncChannel> channel) {
  auto link = std::make_shared<Link>();
  link->channel = std::move(channel);
  link->proto = node_->protocol().MakePublisherLink(topic_, subscriber);
  link->ack_window = node_->Options().ack_window;
  link->max_queue = node_->Options().max_queue;
  link->reactor = &transport::Reactor::Global();
  link->cpu_acc = &node_->cpu_ns_;
  // A TCP link is attached from inside the handshake frame handler, so this
  // swap executes synchronously on the loop thread and later frames (early
  // ACKs included) flow straight to the link.
  link->channel->StartAsync([link](BytesView frame) { link->OnFrame(frame); },
                            [link] {
                              link->Finish();
                              link->closed.store(true,
                                                 std::memory_order_release);
                            });
  bool closed;
  {
    MutexLock lock(links_mu_);
    closed = links_closed_;
    if (!closed) links_.push_back(std::move(link));
  }
  if (closed) {
    // Lost the race with Shutdown(): nobody will ever drain this link, so
    // tear it down here (detaches its handlers) instead of leaking it.
    link->Shutdown();
    return;
  }
  links_cv_.NotifyAll();
}

void Publisher::Shutdown() {
  std::vector<std::shared_ptr<Link>> links;
  {
    MutexLock lock(links_mu_);
    links_closed_ = true;
    links.swap(links_);
    links.insert(links.end(), retired_.begin(), retired_.end());
    retired_.clear();
  }
  for (auto& link : links) link->Shutdown();
}

// ---------------------------------------------------------------------------
// Subscription: one connection per publisher link, held as a state machine
// on the channel's reactor loop, as a publisher link is: verify and ACK each
// publication, then deliver it. Shared-owned, so a handler whose own send
// tears the connection down still finds live state.

struct Node::Subscription {
  std::string topic;
  Node::Callback callback;
  std::unique_ptr<SubscriberLinkProtocol> proto;
  transport::ChannelPtr channel;
  // The owning node's CPU account: loop work is billed there.
  std::atomic<Timestamp>* cpu_acc = nullptr;

  /// Loop thread: the frame handler. One inbound publication: verify/ack
  /// via the protocol, then deliver.
  void OnFrame(BytesView bytes) {
    ThreadCpuTracker cpu(cpu_acc);
    const Timestamp handle_start = MonotonicNowNs();
    auto result = proto->OnMessage(bytes);
    // The ACK is returned before delivery to the application layer
    // (step 4 of the prototype: signing happens mid-deserialization). A
    // failed send means the connection is gone; its close edge follows.
    if (result.reply && !channel->Send(*result.reply)) return;
    obs::metric::DeliverNs().Record(
        static_cast<std::uint64_t>(MonotonicNowNs() - handle_start));
    if (result.deliver) {
      obs::metric::DeliverTotal().Add(1);
      obs::TraceLog::Global().Record(obs::TraceKind::kDeliver, topic,
                                     result.deliver->header.seq);
      callback(*result.deliver);
    }
  }

  /// Closes the connection and waits for its close edge, which follows the
  /// handler in flight: afterwards no handler touches node state or the
  /// callback. Unbounded: a slow callback must not outlive its node.
  void Shutdown() {
    channel->Close();
    while (!channel->WaitClosed(1000)) {
    }
  }
};

// ---------------------------------------------------------------------------
// TCP endpoint: the node's listener. Accepts on the reactor and parses the
// handshake from each connection's first frame.

struct Node::TcpEndpoint {
  transport::TcpListener listener;
  Node* node;
  std::unique_ptr<transport::ReactorAcceptor> acceptor;
  std::atomic<bool> shutting_down{false};
  // Connections accepted but not yet handshaken; owned here so Shutdown
  // can close them (and so the handshake handler can capture weakly).
  Mutex pending_mu;
  std::vector<std::shared_ptr<transport::EpollChannel>> pending
      GUARDED_BY(pending_mu);

  explicit TcpEndpoint(Node* owner) : listener(0), node(owner) {
    acceptor = std::make_unique<transport::ReactorAcceptor>(
        transport::Reactor::Global(), listener,
        [this](std::shared_ptr<transport::EpollChannel> channel) {
          OnAccept(std::move(channel));
        });
  }

  // Loop thread. The first frame is the handshake; AttachSubscriberLink
  // replaces the handlers (synchronously, same loop) so every later frame
  // goes to the link's state machine.
  void OnAccept(std::shared_ptr<transport::EpollChannel> channel) {
    if (shutting_down.load(std::memory_order_acquire)) {
      channel->Close();
      return;
    }
    {
      MutexLock lock(pending_mu);
      pending.push_back(channel);
    }
    std::weak_ptr<transport::EpollChannel> weak = channel;
    channel->StartAsync(
        [this, weak](BytesView frame) {
          auto ch = weak.lock();
          if (!ch) return;
          ErasePending(ch);
          std::string topic;
          crypto::ComponentId subscriber;
          try {
            ParseHandshake(frame, topic, subscriber);
          } catch (const wire::WireError&) {
            ch->Close();
            return;
          }
          node->AttachSubscriberLink(topic, subscriber, ch);
        },
        [this, weak] {
          if (auto ch = weak.lock()) ErasePending(ch);
        });
  }

  void ErasePending(const std::shared_ptr<transport::EpollChannel>& channel)
      EXCLUDES(pending_mu) {
    MutexLock lock(pending_mu);
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (*it == channel) {
        pending.erase(it);
        return;
      }
    }
  }

  void Shutdown() {
    shutting_down.store(true, std::memory_order_release);
    // Acceptor first: after its Close() returns no accept callback runs,
    // so `this` stays valid for the whole teardown.
    acceptor->Close();
    listener.Close();
    std::vector<std::shared_ptr<transport::EpollChannel>> orphans;
    {
      MutexLock lock(pending_mu);
      orphans.swap(pending);
    }
    for (auto& channel : orphans) {
      channel->Close();
      channel->WaitClosed(2000);
    }
  }
};

// ---------------------------------------------------------------------------
// Node.

Node::Node(crypto::ComponentId name, MasterApi& master, NodeOptions options)
    : name_(std::move(name)), master_(master), options_(std::move(options)) {
  if (!options_.protocol) {
    throw std::invalid_argument("Node: a ProtocolFactory is required");
  }
  if (options_.ack_window == 0) {
    throw std::invalid_argument("Node: ack_window must be >= 1");
  }
}

Node::~Node() { Shutdown(); }

Publisher& Node::Advertise(const std::string& topic) {
  Publisher* pub;
  std::uint16_t tcp_port = 0;
  {
    MutexLock lock(mu_);
    if (shut_down_) throw std::logic_error("Node: already shut down");
    publishers_.push_back(
        std::unique_ptr<Publisher>(new Publisher(this, topic)));
    pub = publishers_.back().get();
    if (options_.transport == TransportKind::kTcp) {
      if (!tcp_) tcp_ = std::make_unique<TcpEndpoint>(this);
      // Read the port while still holding mu_: a concurrent Shutdown()
      // swaps tcp_ out under the same lock, so an unlocked read here could
      // dereference a null endpoint.
      tcp_port = tcp_->listener.Port();
    }
  }

  AdvertiseInfo info;
  if (options_.transport == TransportKind::kInProc) {
    info.connect = [this, topic](const crypto::ComponentId& subscriber) {
      auto pair = transport::MakeInProcChannelPair(transport::Reactor::Global(),
                                                   options_.link_model);
      AttachSubscriberLink(topic, subscriber, pair.a);
      return pair.b;
    };
  } else {
    // TCP mode: announce the listener port so even a master in another
    // process (remote_master.h) can route subscribers here. The local
    // master synthesizes the connector from the port.
    info.tcp_port = tcp_port;
  }
  master_.Advertise(topic, name_, std::move(info));
  return *pub;
}

void Node::AttachSubscriberLink(
    const std::string& topic, const crypto::ComponentId& subscriber,
    std::shared_ptr<transport::AsyncChannel> channel) {
  Publisher* pub = nullptr;
  {
    MutexLock lock(mu_);
    if (shut_down_) return;
    for (auto& p : publishers_) {
      if (p->Topic() == topic) {
        pub = p.get();
        break;
      }
    }
  }
  if (pub == nullptr) {
    channel->Close();
    return;
  }
  pub->AddLink(subscriber, std::move(channel));
}

void Node::Subscribe(const std::string& topic, Callback callback) {
  {
    MutexLock lock(mu_);
    if (shut_down_) throw std::logic_error("Node: already shut down");
  }
  master_.Subscribe(
      topic, name_,
      [this, topic, callback = std::move(callback)](
          const crypto::ComponentId& publisher,
          transport::ChannelPtr channel) {
        auto sub = std::make_shared<Subscription>();
        sub->topic = topic;
        sub->callback = callback;
        sub->proto = options_.protocol->MakeSubscriberLink(topic, publisher);
        sub->channel = std::move(channel);
        sub->cpu_acc = &cpu_ns_;
        {
          MutexLock lock(mu_);
          if (shut_down_) {
            sub->channel->Close();
            return;
          }
          subscriptions_.push_back(sub);
        }
        // Unlocked: frames that queued already may deliver inline, and the
        // callback may re-enter the node. Shutdown's close-edge wait covers
        // a subscription it found before this call.
        sub->channel->StartAsync(
            [sub](BytesView frame) { sub->OnFrame(frame); }, nullptr);
      });
}

void Node::Shutdown() {
  std::vector<std::unique_ptr<Publisher>> pubs;
  std::vector<std::shared_ptr<Subscription>> subs;
  std::unique_ptr<TcpEndpoint> tcp;
  {
    MutexLock lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    pubs.swap(publishers_);
    subs.swap(subscriptions_);
    tcp.swap(tcp_);
  }
  if (tcp) tcp->Shutdown();
  for (auto& p : pubs) p->Shutdown();
  for (auto& s : subs) s->Shutdown();
}

}  // namespace adlp::pubsub
