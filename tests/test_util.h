// Shared test utilities: cheap deterministic identities, a two-component
// harness, a channel inbox, and helpers for constructing honest log-entry
// pairs without spinning up the full pipeline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "adlp/component.h"
#include "adlp/log_server.h"
#include "common/rng.h"
#include "faults/fabricate.h"
#include "pubsub/master.h"
#include "transport/channel.h"

namespace adlp::test {

/// Tests use 512-bit RSA for speed; the protocol logic is key-size agnostic
/// (benches use 1024 to match the paper's signature sizes).
inline constexpr std::size_t kTestRsaBits = 512;

/// Deterministic identity, cached per (name): repeated calls are free.
inline const proto::NodeIdentity& TestIdentity(const std::string& name) {
  static std::map<std::string, proto::NodeIdentity> cache;
  static std::mutex mu;
  std::lock_guard lock(mu);
  auto it = cache.find(name);
  if (it == cache.end()) {
    // Seed from the name so identities differ but are reproducible.
    std::uint64_t seed = 0xadf0;
    for (char c : name) seed = seed * 131 + static_cast<unsigned char>(c);
    Rng rng(seed);
    it = cache.emplace(name, proto::MakeNodeIdentity(name, rng, kTestRsaBits))
             .first;
  }
  return it->second;
}

/// Spins until `predicate` holds or `timeout` elapses. Returns the final
/// predicate value.
inline bool WaitFor(const std::function<bool()>& predicate,
                    std::chrono::milliseconds timeout =
                        std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return predicate();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A channel's frames, collected by its handlers for a test thread to take
/// in order. The state is shared with the handlers, so the inbox may go
/// before the channel's close edge.
class Inbox {
 public:
  /// Attaches to `channel` (StartAsync): every frame queues here, and the
  /// close edge ends the queue.
  explicit Inbox(transport::AsyncChannel& channel) {
    channel.StartAsync(
        [state = state_](BytesView frame) {
          std::lock_guard lock(state->mu);
          state->frames.emplace_back(frame.begin(), frame.end());
          state->cv.notify_all();
        },
        [state = state_] {
          std::lock_guard lock(state->mu);
          state->closed = true;
          state->cv.notify_all();
        });
  }

  /// The next frame; std::nullopt once the channel closed and every frame
  /// was taken, or when `timeout` passes first.
  std::optional<Bytes> Pop(std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
    std::unique_lock lock(state_->mu);
    state_->cv.wait_for(lock, timeout, [this] {
      return !state_->frames.empty() || state_->closed;
    });
    if (state_->frames.empty()) return std::nullopt;
    Bytes frame = std::move(state_->frames.front());
    state_->frames.pop_front();
    return frame;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Bytes> frames;
    bool closed = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Component options preset for tests: small keys, wall clock.
inline proto::ComponentOptions FastOptions(
    proto::LoggingScheme scheme = proto::LoggingScheme::kAdlp) {
  proto::ComponentOptions opts;
  opts.scheme = scheme;
  opts.rsa_bits = kTestRsaBits;
  return opts;
}

/// A master + log server + components, torn down in order.
struct MiniSystem {
  pubsub::Master master;
  proto::LogServer server;
  Rng rng{424242};
  std::map<std::string, std::unique_ptr<proto::Component>> components;

  proto::Component& Add(const std::string& name,
                        proto::ComponentOptions opts = FastOptions()) {
    auto [it, inserted] = components.emplace(
        name,
        std::make_unique<proto::Component>(name, master, server, rng, opts));
    return *it->second;
  }

  proto::Component& operator[](const std::string& name) {
    return *components.at(name);
  }

  void ShutdownAll() {
    for (auto& [name, c] : components) c->Shutdown();
  }

  ~MiniSystem() { ShutdownAll(); }
};

/// Honest publisher/subscriber entry pair for a transmission of `data` —
/// exactly what a faithful exchange produces (the ForgeColludingPair helper
/// with both real identities *is* the honest pair; collusion and honesty
/// are indistinguishable by construction, which is the paper's point).
inline faults::ForgedPair MakeFaithfulPair(
    const proto::NodeIdentity& publisher, const proto::NodeIdentity& subscriber,
    const std::string& topic, std::uint64_t seq, Bytes data,
    Timestamp t_pub = 1000, bool subscriber_stores_hash = true) {
  faults::FabricationSpec spec;
  spec.topic = topic;
  spec.seq = seq;
  spec.timestamp = t_pub;
  spec.message_stamp = t_pub - 1;
  spec.data = std::move(data);
  spec.peer = subscriber.id;
  return faults::ForgeColludingPair(publisher, subscriber, spec,
                                    subscriber_stores_hash);
}

/// Topology for a single topic with one subscriber.
inline std::map<std::string, pubsub::Master::TopicInfo> OneTopicTopology(
    const std::string& topic, const crypto::ComponentId& publisher,
    const std::vector<crypto::ComponentId>& subscribers) {
  std::map<std::string, pubsub::Master::TopicInfo> topo;
  topo[topic] = pubsub::Master::TopicInfo{publisher, subscribers};
  return topo;
}

}  // namespace adlp::test
