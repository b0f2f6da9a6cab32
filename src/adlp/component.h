// Component: the top-level building block an application instantiates —
// one software component `c_i` with its node, cryptographic identity,
// logging thread, and protocol stack wired together. Applications publish
// and subscribe through it and never see the protocol (the transparency
// property: the same application code runs under No-Logging, Base, or ADLP).
//
// Fault injection hooks in here: `pipe_wrapper` interposes an arbitrary
// LogPipe between the protocol layer and the logging thread, which is where
// an unfaithful component forges, falsifies, or hides its entries (see
// src/faults).
#pragma once

#include <functional>
#include <limits>
#include <memory>

#include "adlp/log_sink.h"
#include "adlp/logging_thread.h"
#include "adlp/protocols.h"
#include "common/clock.h"
#include "common/rng.h"
#include "pubsub/node.h"

namespace adlp::proto {

enum class LoggingScheme {
  kNone,  // plain pub/sub, nothing logged
  kBase,  // naive logging (Definition 2)
  kAdlp,  // the paper's protocol
};

struct ComponentOptions {
  LoggingScheme scheme = LoggingScheme::kAdlp;
  AdlpOptions adlp;
  BaseLoggingOptions base;

  /// Signature algorithm for the identity key (ADLP only). RSA PKCS#1 is
  /// the paper's scheme; Ed25519 is the "lightweight crypto" alternative of
  /// Sec. VI-E.
  crypto::SigAlgorithm sig_algorithm = crypto::SigAlgorithm::kRsaPkcs1Sha256;

  /// RSA modulus bits for the identity key (RSA only). 1024 matches the
  /// paper; tests may shrink it for speed.
  std::size_t rsa_bits = 1024;

  const Clock* clock = &WallClock::Instance();
  pubsub::TransportKind transport = pubsub::TransportKind::kInProc;
  transport::LinkModel link_model;
  std::size_t ack_window = 1;
  std::size_t max_queue = std::numeric_limits<std::size_t>::max();

  /// Interposes a LogPipe between the protocol and the logging thread
  /// (fault injection). Receives the inner pipe and the component identity
  /// (an unfaithful component can re-sign anything with its *own* key, but
  /// can never forge a peer's).
  std::function<std::unique_ptr<LogPipe>(LogPipe& inner,
                                         const NodeIdentity& identity)>
      pipe_wrapper;
};

class Component {
 public:
  /// Creates the component. For ADLP: generates the key pair from `rng` and
  /// registers the public key with `sink` (key registration, step 1).
  Component(crypto::ComponentId id, pubsub::MasterApi& master, LogSink& sink,
            Rng& rng, ComponentOptions options = {});
  ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  pubsub::Publisher& Advertise(const std::string& topic);
  void Subscribe(const std::string& topic, pubsub::Node::Callback callback);

  /// Stops the node, flushes aggregated entries and the logging thread.
  /// Idempotent.
  void Shutdown();

  /// Blocks until every log entry entered so far reached the sink.
  void FlushLogs();

  const crypto::ComponentId& Id() const { return identity_->id; }
  const NodeIdentity& Identity() const { return *identity_; }
  pubsub::Node& node() { return *node_; }
  LoggingThread& logging() { return *logging_; }

  /// Non-null only under the ADLP scheme.
  AdlpFactory* adlp_factory() { return adlp_factory_; }

  /// CPU time attributable to this component's middleware + logging work
  /// (encode/sign, publisher links and subscriptions on reactor loops,
  /// logging thread).
  std::int64_t CpuTimeNs() const {
    return node_->CpuTimeNs() + (logging_ ? logging_->CpuTimeNs() : 0);
  }

 private:
  std::shared_ptr<const NodeIdentity> identity_;
  std::unique_ptr<LoggingThread> logging_;
  std::unique_ptr<LogPipe> wrapped_pipe_;  // optional fault-injection layer
  std::shared_ptr<pubsub::ProtocolFactory> factory_;
  AdlpFactory* adlp_factory_ = nullptr;
  std::unique_ptr<pubsub::Node> node_;
  bool shut_down_ = false;
};

}  // namespace adlp::proto
