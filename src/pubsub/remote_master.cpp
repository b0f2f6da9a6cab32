#include "pubsub/remote_master.h"

#include <stdexcept>
#include <utility>

#include "pubsub/handshake.h"
#include "transport/reactor.h"
#include "wire/wire.h"

namespace adlp::pubsub {

namespace {

enum : std::uint64_t {
  kReqAdvertise = 1,
  kReqSubscribe = 2,
  kReqTopology = 3,
  kRspAck = 10,
  kRspError = 11,
  kRspConnectInfo = 12,
  kRspTopology = 13,
};

enum : std::uint32_t {
  kFieldType = 1,
  kFieldTopic = 2,
  kFieldComponent = 3,
  kFieldPort = 4,
  kFieldText = 5,
  kFieldTopicRecord = 6,  // repeated nested, topology replies
};

enum : std::uint32_t {
  kTopicName = 1,
  kTopicPublisher = 2,
  kTopicSubscriber = 3,
};

struct Frame {
  std::uint64_t type = 0;
  std::string topic;
  crypto::ComponentId component;
  std::uint16_t port = 0;
  std::string text;
  std::map<std::string, TopicInfo> topology;
};

Bytes EncodeFrame(const Frame& f) {
  wire::Writer w;
  w.PutU64(kFieldType, f.type);
  if (!f.topic.empty()) w.PutString(kFieldTopic, f.topic);
  if (!f.component.empty()) w.PutString(kFieldComponent, f.component);
  if (f.port != 0) w.PutU64(kFieldPort, f.port);
  if (!f.text.empty()) w.PutString(kFieldText, f.text);
  for (const auto& [name, info] : f.topology) {
    wire::Writer t;
    t.PutString(kTopicName, name);
    t.PutString(kTopicPublisher, info.publisher);
    for (const auto& sub : info.subscribers) t.PutString(kTopicSubscriber, sub);
    w.PutMessage(kFieldTopicRecord, t);
  }
  return std::move(w).Take();
}

Frame DecodeFrame(BytesView data) {
  Frame f;
  wire::Reader r(data);
  std::uint32_t field;
  wire::WireType type;
  while (r.NextField(field, type)) {
    switch (field) {
      case kFieldType:
        f.type = r.GetU64Value();
        break;
      case kFieldTopic:
        f.topic = r.GetStringValue();
        break;
      case kFieldComponent:
        f.component = r.GetStringValue();
        break;
      case kFieldPort:
        f.port = static_cast<std::uint16_t>(r.GetU64Value());
        break;
      case kFieldText:
        f.text = r.GetStringValue();
        break;
      case kFieldTopicRecord: {
        wire::Reader t = r.GetMessageValue();
        std::string name;
        TopicInfo info;
        std::uint32_t tf;
        wire::WireType tt;
        while (t.NextField(tf, tt)) {
          switch (tf) {
            case kTopicName:
              name = t.GetStringValue();
              break;
            case kTopicPublisher:
              info.publisher = t.GetStringValue();
              break;
            case kTopicSubscriber:
              info.subscribers.push_back(t.GetStringValue());
              break;
            default:
              t.SkipValue(tt);
              break;
          }
        }
        f.topology[name] = std::move(info);
        break;
      }
      default:
        r.SkipValue(type);
        break;
    }
  }
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// MasterService

MasterService::MasterService(std::uint16_t port) : listener_(port) {
  acceptor_ = std::make_unique<transport::ReactorAcceptor>(
      transport::Reactor::Global(), listener_,
      [this](std::shared_ptr<transport::EpollChannel> channel) {
        Adopt(std::move(channel));
      });
}

MasterService::~MasterService() { Shutdown(); }

void MasterService::Adopt(std::shared_ptr<transport::EpollChannel> channel) {
  // Runs on a reactor loop thread. Safe to touch `this`: Shutdown() closes
  // the acceptor with its loop barrier before tearing the service down.
  {
    MutexLock lock(mu_);
    if (shutting_down_.load()) {
      channel->Close();
      return;
    }
    connections_.push_back(channel);
  }
  // Unlocked: the close handler takes mu_.
  transport::ChannelPtr as_channel = channel;
  channel->StartAsync(
      [this, as_channel](BytesView frame) { ServeFrame(frame, as_channel); },
      // The node left: drop the last owning reference, freeing the fd.
      [this, raw = channel.get()] {
        MutexLock lock(mu_);
        std::erase_if(connections_,
                      [raw](const auto& c) { return c.get() == raw; });
      });
}

void MasterService::ServeFrame(BytesView frame,
                               const transport::ChannelPtr& channel) {
  Bytes response;
  try {
    response = HandleRequest(frame, channel);
  } catch (const wire::WireError&) {
    Frame err;
    err.type = kRspError;
    err.text = "malformed request";
    response = EncodeFrame(err);
  }
  if (!response.empty()) (void)channel->Send(response);
}

Bytes MasterService::HandleRequest(BytesView frame_bytes,
                                   const transport::ChannelPtr& channel) {
  const Frame request = DecodeFrame(frame_bytes);

  switch (request.type) {
    case kReqAdvertise: {
      std::vector<Waiter> waiting;
      Frame response;
      {
        MutexLock lock(mu_);
        TopicState& state = topics_[request.topic];
        if (state.advertised) {
          response.type = kRspError;
          response.text = "topic '" + request.topic +
                          "' already has a publisher (" + state.publisher +
                          ")";
          return EncodeFrame(response);
        }
        state.advertised = true;
        state.publisher = request.component;
        state.port = request.port;
        waiting = std::move(state.waiting);
        state.waiting.clear();
        for (const auto& [conn, sub] : waiting) {
          state.subscribers.push_back(sub);
        }
      }
      // Release the parked subscribers (on their own connections).
      Frame info;
      info.type = kRspConnectInfo;
      info.topic = request.topic;
      info.component = request.component;
      info.port = request.port;
      const Bytes info_bytes = EncodeFrame(info);
      for (const auto& [conn, sub] : waiting) {
        if (auto live = conn.lock()) (void)live->Send(info_bytes);
      }
      response.type = kRspAck;
      return EncodeFrame(response);
    }

    case kReqSubscribe: {
      Frame response;
      bool ready = false;
      Frame info;
      {
        MutexLock lock(mu_);
        TopicState& state = topics_[request.topic];
        if (state.advertised) {
          state.subscribers.push_back(request.component);
          info.type = kRspConnectInfo;
          info.topic = request.topic;
          info.component = state.publisher;
          info.port = state.port;
          ready = true;
        } else {
          state.waiting.push_back({channel, request.component});
        }
      }
      if (ready) (void)channel->Send(EncodeFrame(info));
      response.type = kRspAck;
      return EncodeFrame(response);
    }

    case kReqTopology: {
      Frame response;
      response.type = kRspTopology;
      response.topology = Topology();
      return EncodeFrame(response);
    }

    default: {
      Frame response;
      response.type = kRspError;
      response.text = "unknown request type";
      return EncodeFrame(response);
    }
  }
}

std::map<std::string, TopicInfo> MasterService::Topology() const {
  MutexLock lock(mu_);
  std::map<std::string, TopicInfo> out;
  for (const auto& [topic, state] : topics_) {
    if (!state.advertised) continue;
    out[topic] = TopicInfo{state.publisher, state.subscribers};
  }
  return out;
}

void MasterService::Shutdown() {
  if (shutting_down_.exchange(true)) return;
  // Close the acceptor first: its Close() barrier guarantees no accept
  // callback (which touches `this`) is still running afterwards.
  acceptor_->Close();
  listener_.Close();
  std::vector<std::shared_ptr<transport::EpollChannel>> connections;
  {
    MutexLock lock(mu_);
    connections.swap(connections_);
  }
  for (auto& c : connections) c->Close();
  // Frame handlers capture `this`; wait for each channel's loop-side
  // teardown so none can run once Shutdown returns.
  for (auto& c : connections) c->WaitClosed(2000);
}

// ---------------------------------------------------------------------------
// RemoteMaster

RemoteMaster::RemoteMaster(std::uint16_t port,
                           transport::TcpConnectOptions options)
    : channel_(transport::TcpConnect(port, options)) {
  channel_->StartAsync([this](BytesView frame) { OnFrame(frame); },
                       [rpc = rpc_] { rpc->Fail(); });
}

RemoteMaster::~RemoteMaster() { Close(); }

void RemoteMaster::Close() {
  channel_->Close();
  // The frame handler captures `this`, and the close edge follows the
  // handler in flight (a connect_info dial, or the subscriber's callback):
  // unbounded, so no handler outlives this object.
  while (!channel_->WaitClosed(1000)) {
  }
}

void RemoteMaster::OnFrame(BytesView frame_bytes) {
  Frame frame;
  try {
    frame = DecodeFrame(frame_bytes);
  } catch (const wire::WireError&) {
    return;
  }
  if (frame.type != kRspConnectInfo) {
    // RPC response (ack / error / topology).
    (void)rpc_->Deliver(frame_bytes);
    return;
  }

  // Resolve every pending subscription for this topic.
  std::vector<std::pair<crypto::ComponentId, SubscriberConnectCb>> matched;
  {
    MutexLock lock(mu_);
    auto [begin, end] = pending_subs_.equal_range(frame.topic);
    for (auto it = begin; it != end; ++it) matched.push_back(it->second);
    pending_subs_.erase(begin, end);
  }
  for (auto& [subscriber, cb] : matched) {
    // The publisher may still be bringing its data listener up, or may
    // have vanished between advertise and dial: retry briefly, then drop
    // quietly — the data plane treats it like a lost connection.
    transport::TcpConnectOptions dial;
    dial.attempts = 3;
    dial.connect_timeout_ms = 500;
    dial.retry_delay_ms = 20;
    auto data_channel = transport::TryTcpConnect(frame.port, dial);
    if (data_channel == nullptr) continue;
    data_channel->Send(SerializeHandshake(frame.topic, subscriber));
    cb(frame.component, std::move(data_channel));
  }
}

Bytes RemoteMaster::Rpc(BytesView request) const {
  std::optional<Bytes> response = rpc_->Call(channel_, request);
  if (!response) throw std::runtime_error("RemoteMaster: connection closed");
  return std::move(*response);
}

void RemoteMaster::Advertise(const std::string& topic,
                             const crypto::ComponentId& publisher,
                             AdvertiseInfo info) {
  if (info.tcp_port == 0) {
    throw std::invalid_argument(
        "RemoteMaster::Advertise: cross-process publishers need a TCP "
        "listener (use TransportKind::kTcp)");
  }
  Frame request;
  request.type = kReqAdvertise;
  request.topic = topic;
  request.component = publisher;
  request.port = info.tcp_port;
  const Frame response = DecodeFrame(Rpc(EncodeFrame(request)));
  if (response.type == kRspError) throw std::logic_error(response.text);
}

void RemoteMaster::Subscribe(const std::string& topic,
                             const crypto::ComponentId& subscriber,
                             SubscriberConnectCb on_connect) {
  {
    MutexLock lock(mu_);
    pending_subs_.emplace(topic, std::make_pair(subscriber, on_connect));
  }
  Frame request;
  request.type = kReqSubscribe;
  request.topic = topic;
  request.component = subscriber;
  const Frame response = DecodeFrame(Rpc(EncodeFrame(request)));
  if (response.type == kRspError) throw std::logic_error(response.text);
}

std::optional<crypto::ComponentId> RemoteMaster::PublisherOf(
    const std::string& topic) const {
  const auto topo = Topology();
  const auto it = topo.find(topic);
  if (it == topo.end()) return std::nullopt;
  return it->second.publisher;
}

std::map<std::string, TopicInfo> RemoteMaster::Topology() const {
  Frame request;
  request.type = kReqTopology;
  const Frame response = DecodeFrame(Rpc(EncodeFrame(request)));
  return response.topology;
}

}  // namespace adlp::pubsub
