#include "adlp/component.h"

namespace adlp::proto {

Component::Component(crypto::ComponentId id, pubsub::MasterApi& master,
                     LogSink& sink, Rng& rng, ComponentOptions options) {
  auto identity = std::make_shared<NodeIdentity>();
  identity->id = std::move(id);
  if (options.scheme == LoggingScheme::kAdlp) {
    identity->keys = crypto::GenerateSigKeyPair(rng, options.sig_algorithm,
                                                options.rsa_bits);
    sink.RegisterKey(identity->id, identity->keys.pub);
  }
  identity_ = identity;

  if (options.scheme != LoggingScheme::kNone) {
    logging_ = std::make_unique<LoggingThread>(identity_->id, sink);
  }

  LogPipe* pipe = logging_.get();
  if (pipe != nullptr && options.pipe_wrapper) {
    wrapped_pipe_ = options.pipe_wrapper(*pipe, *identity_);
    pipe = wrapped_pipe_.get();
  }

  switch (options.scheme) {
    case LoggingScheme::kNone:
      factory_ = std::make_shared<NoLoggingFactory>();
      break;
    case LoggingScheme::kBase:
      factory_ = std::make_shared<BaseLoggingFactory>(
          identity_->id, *pipe, *options.clock, options.base);
      break;
    case LoggingScheme::kAdlp: {
      auto adlp = std::make_shared<AdlpFactory>(identity_, *pipe,
                                                *options.clock, options.adlp);
      adlp_factory_ = adlp.get();
      factory_ = std::move(adlp);
      break;
    }
  }

  pubsub::NodeOptions node_options;
  node_options.protocol = factory_;
  node_options.clock = options.clock;
  node_options.transport = options.transport;
  node_options.link_model = options.link_model;
  node_options.ack_window = options.ack_window;
  node_options.max_queue = options.max_queue;
  node_ = std::make_unique<pubsub::Node>(identity_->id, master,
                                         std::move(node_options));
}

Component::~Component() { Shutdown(); }

pubsub::Publisher& Component::Advertise(const std::string& topic) {
  return node_->Advertise(topic);
}

void Component::Subscribe(const std::string& topic,
                          pubsub::Node::Callback callback) {
  node_->Subscribe(topic, std::move(callback));
}

void Component::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  node_->Shutdown();
  if (adlp_factory_ != nullptr) adlp_factory_->FlushAggregated();
  if (logging_) {
    logging_->Flush();
    logging_->Stop();
  }
}

void Component::FlushLogs() {
  if (adlp_factory_ != nullptr) adlp_factory_->FlushAggregated();
  if (logging_) logging_->Flush();
}

}  // namespace adlp::proto
