// Node: a software component `c_i`. Owns its publishers, subscriptions, and
// one link per subscriber connection (ROS runs a connection thread per
// subscriber, not per topic). Every publisher link and every subscription,
// in-proc or TCP, is a state machine on the shared epoll reactor, which also
// accepts the node's inbound connections: a node owns no thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "crypto/keystore.h"
#include "pubsub/master.h"
#include "pubsub/message.h"
#include "pubsub/protocol.h"
#include "transport/channel.h"
#include "transport/inproc.h"
#include "transport/tcp.h"

namespace adlp::pubsub {

enum class TransportKind {
  kInProc,  // deterministic in-process channels (default for experiments)
  kTcp,     // real loopback TCP sockets
};

struct NodeOptions {
  /// Logging/transport protocol (NoLogging / BaseLogging / Adlp factories
  /// from src/adlp). Required.
  std::shared_ptr<ProtocolFactory> protocol;

  /// Time source for message stamps.
  const Clock* clock = &WallClock::Instance();

  TransportKind transport = TransportKind::kInProc;
  transport::LinkModel link_model;  // in-proc only

  /// Max unacknowledged messages per link before the sender blocks
  /// (protocols with ACKs only). 1 = the paper's scheme: a new message is
  /// not sent to a subscriber whose previous ACK is outstanding.
  std::size_t ack_window = 1;

  /// Per-link send-queue capacity. Publications beyond it are dropped for
  /// that link (models a sensor outpacing a slow subscriber without
  /// unbounded backlog). Default: unbounded.
  std::size_t max_queue = std::numeric_limits<std::size_t>::max();
};

class Node;

/// Handle for publishing on one topic. Obtained from Node::Advertise;
/// thread-safe (components may publish from several callback threads).
class Publisher {
 public:
  /// Publishes `payload`: stamps a header, encodes once via the protocol
  /// factory, then hands the encoded publication to every subscriber link.
  /// Returns the assigned sequence number.
  std::uint64_t Publish(Bytes payload) EXCLUDES(publish_mu_, links_mu_);

  const std::string& Topic() const { return topic_; }
  std::uint64_t LastSeq() const {
    return seq_.load(std::memory_order_relaxed);
  }
  /// Subscriber links still connected. A link stops counting as soon as its
  /// subscriber leaves, and the next Publish retires it without waiting.
  std::size_t SubscriberCount() const EXCLUDES(links_mu_);

  /// Blocks until at least `count` live subscriber links are attached (TCP
  /// connections attach asynchronously) or `timeout` elapses. Returns true
  /// when the count was reached. Waits for a loop: not from a callback.
  bool WaitForSubscribers(std::size_t count,
                          std::chrono::milliseconds timeout =
                              std::chrono::milliseconds(5000)) const
      EXCLUDES(links_mu_);

  /// Total messages dropped due to full per-link queues, retired links
  /// included.
  std::uint64_t DroppedCount() const EXCLUDES(links_mu_);

 private:
  friend class Node;
  struct Link;

  Publisher(Node* node, std::string topic);

  void AddLink(const crypto::ComponentId& subscriber,
               std::shared_ptr<transport::AsyncChannel> channel)
      EXCLUDES(links_mu_);
  void Shutdown() EXCLUDES(links_mu_);
  std::size_t LiveLinksLocked() const REQUIRES(links_mu_);

  Node* node_;
  std::string topic_;
  // Lock order: publish_mu_ before links_mu_ (Publish encodes under
  // publish_mu_, then fans out under links_mu_). Never the reverse.
  Mutex publish_mu_;
  std::atomic<std::uint64_t> seq_{0};

  mutable Mutex links_mu_;
  mutable CondVar links_cv_;
  std::vector<std::shared_ptr<Link>> links_ GUARDED_BY(links_mu_);
  // Retired links whose close edge may not have run yet.
  std::vector<std::shared_ptr<Link>> retired_ GUARDED_BY(links_mu_);
  // Queue-full drops of links already retired.
  std::uint64_t retired_dropped_ GUARDED_BY(links_mu_) = 0;
  // Set by Shutdown(); a late AddLink (TCP handshakes land asynchronously)
  // must tear its link down instead of inserting it into a list nobody
  // will ever drain again.
  bool links_closed_ GUARDED_BY(links_mu_) = false;
};

class Node {
 public:
  /// Creates the node and (in TCP mode) its listener. The node registers
  /// nothing with the master until Advertise/Subscribe are called.
  Node(crypto::ComponentId name, MasterApi& master, NodeOptions options);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Advertises `topic`; throws std::logic_error if another publisher holds
  /// it. The returned handle stays valid until Shutdown.
  Publisher& Advertise(const std::string& topic) EXCLUDES(mu_);

  /// Runs on the connection's reactor loop, after the ACK went out, once
  /// per publication, never concurrently with itself. It may publish. It
  /// must not wait for a loop: no Node::Shutdown, WaitForSubscribers,
  /// RemoteMaster RPC or SyncClient fetch. While it runs, the other
  /// connections on its loop wait.
  using Callback = std::function<void(const Message&)>;

  /// Subscribes to `topic`; `callback` runs once a publisher is available.
  void Subscribe(const std::string& topic, Callback callback) EXCLUDES(mu_);

  /// Closes all links and subscriptions and waits for their handlers:
  /// afterwards no callback runs. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  const crypto::ComponentId& Name() const { return name_; }
  const NodeOptions& Options() const { return options_; }
  const Clock& clock() const { return *options_.clock; }
  ProtocolFactory& protocol() const { return *options_.protocol; }

  /// CPU time consumed by this node's middleware work: per-publication
  /// encoding (hash/sign) on the publishing thread, and the loop work of
  /// its publisher links (ACK handling and sends) and subscriptions
  /// (verify, hash, ACK, and the callback). Used by the
  /// publisher-CPU-utilization experiments (Fig. 14).
  std::int64_t CpuTimeNs() const {
    return cpu_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class Publisher;
  struct Subscription;
  struct TcpEndpoint;

  /// Publisher-side connection setup shared by both transports.
  void AttachSubscriberLink(const std::string& topic,
                            const crypto::ComponentId& subscriber,
                            std::shared_ptr<transport::AsyncChannel> channel)
      EXCLUDES(mu_);

  crypto::ComponentId name_;
  MasterApi& master_;
  NodeOptions options_;

  Mutex mu_;
  bool shut_down_ GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Publisher>> publishers_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Subscription>> subscriptions_ GUARDED_BY(mu_);
  std::unique_ptr<TcpEndpoint> tcp_ GUARDED_BY(mu_);  // lazy, TCP mode only
  mutable std::atomic<Timestamp> cpu_ns_{0};
};

}  // namespace adlp::pubsub
