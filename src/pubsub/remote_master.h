// Cross-process name service: a TCP master (the roscore analogue) plus a
// client-side MasterApi implementation, so components can run as separate
// OS processes — the deployment model of the paper's prototype, where every
// ROS node is its own Linux process.
//
// Wire protocol (framed records on one TCP connection per node):
//   requests:  advertise(topic, publisher, tcp_port)
//              subscribe(topic, subscriber)
//              topology()
//   responses: ack / error(text)            — one per request, in order
//              connect_info(topic, publisher, port)
//                                           — pushed whenever a pending or
//                                             new subscription can connect
//              topology_reply(entries)
//
// The master never touches message data: it hands the subscriber the
// publisher's (id, port); the subscriber dials the publisher directly and
// the point-to-point, unobservable data plane of the paper is preserved.
//
// Both sides run on the shared epoll reactor. A RemoteMaster's frames reach
// its frame handler on its connection's loop: responses go to the waiting
// RPC (transport::ReplySlot), and a connect_info push dials the publisher
// there and hands the connection to the subscriber's callback. No thread
// per node.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "pubsub/master.h"
#include "transport/epoll_channel.h"
#include "transport/tcp.h"

namespace adlp::pubsub {

/// The service side: owns the topic registry for a fleet of node processes.
/// Requests are parsed and answered on the shared epoll reactor, so a master
/// serving a large fleet costs loop wakeups instead of threads. A node's
/// connection is dropped when it closes, so node churn holds no fds.
class MasterService {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral).
  explicit MasterService(std::uint16_t port = 0);
  ~MasterService();

  MasterService(const MasterService&) = delete;
  MasterService& operator=(const MasterService&) = delete;

  std::uint16_t Port() const { return listener_.Port(); }

  /// The registry as seen so far (the audit manifest for the fleet).
  std::map<std::string, TopicInfo> Topology() const;

  void Shutdown();

 private:
  /// A subscriber parked until its topic's publisher advertises. The
  /// connection is held weakly: a subscriber that left holds no fd here.
  struct Waiter {
    std::weak_ptr<transport::AsyncChannel> channel;
    crypto::ComponentId subscriber;
  };

  struct TopicState {
    crypto::ComponentId publisher;
    std::uint16_t port = 0;
    bool advertised = false;
    std::vector<crypto::ComponentId> subscribers;
    std::vector<Waiter> waiting;
  };

  /// Registers one accepted channel and starts serving it on its loop.
  void Adopt(std::shared_ptr<transport::EpollChannel> channel) EXCLUDES(mu_);
  /// Applies one request frame to `channel` and sends the response.
  void ServeFrame(BytesView frame, const transport::ChannelPtr& channel);
  Bytes HandleRequest(BytesView frame, const transport::ChannelPtr& channel);

  transport::TcpListener listener_;
  std::atomic<bool> shutting_down_{false};
  std::unique_ptr<transport::ReactorAcceptor> acceptor_;

  mutable Mutex mu_;
  std::map<std::string, TopicState> topics_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<transport::EpollChannel>> connections_
      GUARDED_BY(mu_);
};

/// The client side: a MasterApi backed by a MasterService in (possibly)
/// another process. One instance per node process. RPCs block their caller
/// until the master answers, without a deadline (the master is trusted), so
/// never call one from a subscription callback or another loop handler.
class RemoteMaster final : public MasterApi {
 public:
  /// Connects to the service at 127.0.0.1:`port`. Throws std::system_error
  /// once `options.attempts` connection attempts are exhausted. Passing
  /// retrying options lets node processes start before the master service
  /// (the usual race when a fleet of processes boots concurrently).
  explicit RemoteMaster(std::uint16_t port,
                        transport::TcpConnectOptions options = {});
  ~RemoteMaster() override;

  /// Cross-process publishers must be reachable over TCP: `info.tcp_port`
  /// is required (i.e. the node must use TransportKind::kTcp). Throws
  /// std::logic_error on duplicate advertisement (the paper's unique-
  /// publisher rule, enforced by the service).
  void Advertise(const std::string& topic, const crypto::ComponentId& publisher,
                 AdvertiseInfo info) override;

  /// `on_connect` runs on this connection's loop once the publisher is
  /// known, after a blocking dial there (3 attempts).
  void Subscribe(const std::string& topic,
                 const crypto::ComponentId& subscriber,
                 SubscriberConnectCb on_connect) override;

  std::optional<crypto::ComponentId> PublisherOf(
      const std::string& topic) const override;

  std::map<std::string, TopicInfo> Topology() const override;

  /// Closes the connection and waits for its close edge: afterwards no
  /// handler runs, and every RPC fails. Idempotent.
  void Close();

 private:
  /// Sends a request and blocks for its ack/error/topology response.
  Bytes Rpc(BytesView request) const;
  /// Loop: one frame from the master.
  void OnFrame(BytesView frame) EXCLUDES(mu_);

  transport::ChannelPtr channel_;
  const std::shared_ptr<transport::ReplySlot> rpc_ =
      std::make_shared<transport::ReplySlot>();

  mutable Mutex mu_;
  // Subscriptions waiting for (or already matched to) connect_info pushes,
  // keyed by topic.
  std::multimap<std::string,
                std::pair<crypto::ComponentId, SubscriberConnectCb>>
      pending_subs_ GUARDED_BY(mu_);
};

}  // namespace adlp::pubsub
