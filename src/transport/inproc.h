// In-process channel: a pair of endpoints sharing two message queues.
//
// An optional `LinkModel` simulates propagation latency and serialization
// (bandwidth) delay: each message carries a delivery-due time computed at
// send. Each end's loop delivers a frame to its handler (the AsyncChannel
// contract, channel.h) at or after its due time, at most one timer-wheel
// tick late, and never ahead of an earlier frame. With the default model
// the channel delivers immediately.
#pragma once

#include <cstdint>
#include <memory>

#include "transport/channel.h"
#include "transport/reactor.h"

namespace adlp::transport {

struct LinkModel {
  /// One-way propagation delay.
  std::int64_t latency_ns = 0;
  /// Serialization rate; 0 means infinite bandwidth.
  std::int64_t bandwidth_bytes_per_sec = 0;

  std::int64_t TransferDelayNs(std::size_t bytes) const {
    std::int64_t delay = latency_ns;
    if (bandwidth_bytes_per_sec > 0) {
      delay += static_cast<std::int64_t>(bytes) * 1'000'000'000 /
               bandwidth_bytes_per_sec;
    }
    return delay;
  }
};

struct InProcChannelPair {
  std::shared_ptr<AsyncChannel> a;
  std::shared_ptr<AsyncChannel> b;
};

/// Creates a connected endpoint pair. Both endpoints share ownership of the
/// underlying queues; closing either end closes the connection. Both are
/// bound to one loop of `reactor`, as an adopted EpollChannel is; frames
/// sent to an end wait in its queue until it calls StartAsync(). The
/// reactor must outlive the endpoints.
InProcChannelPair MakeInProcChannelPair(Reactor& reactor, LinkModel model = {});

}  // namespace adlp::transport
