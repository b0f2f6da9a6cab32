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
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
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
    std::weak_ptr<transport::Channel> channel;
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
/// another process. One instance per node process.
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

  void Subscribe(const std::string& topic,
                 const crypto::ComponentId& subscriber,
                 SubscriberConnectCb on_connect) override;

  std::optional<crypto::ComponentId> PublisherOf(
      const std::string& topic) const override;

  std::map<std::string, TopicInfo> Topology() const override;

  void Close();

 private:
  struct PendingRpc;

  /// Sends a request and blocks for its ack/error/topology response.
  Bytes Rpc(BytesView request) const EXCLUDES(mu_);
  void ReaderLoop() EXCLUDES(mu_);

  transport::ChannelPtr channel_;
  std::thread reader_;

  mutable Mutex mu_;
  mutable CondVar rpc_cv_;
  mutable bool rpc_outstanding_ GUARDED_BY(mu_) = false;
  mutable bool rpc_done_ GUARDED_BY(mu_) = false;
  mutable Bytes rpc_response_ GUARDED_BY(mu_);
  /// Set by ReaderLoop on exit: no further RPC response can ever arrive.
  mutable bool reader_dead_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;

  // Subscriptions waiting for (or already matched to) connect_info pushes,
  // keyed by topic.
  std::multimap<std::string,
                std::pair<crypto::ComponentId, SubscriberConnectCb>>
      pending_subs_ GUARDED_BY(mu_);
};

}  // namespace adlp::pubsub
