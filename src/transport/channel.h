// Point-to-point transport abstraction.
//
// ADLP's threat analysis hinges on data transmission being point-to-point
// and thus unobservable to third parties (TCPROS in the paper's prototype).
// A `Channel` is one reliable, ordered, duplex, message-framed connection
// between exactly one publisher-side link and one subscriber-side link.
//
// Three implementations:
//   * InProcChannel — lock-free of OS dependencies, deterministic, with an
//     optional latency/bandwidth link model (default for experiments);
//   * TcpChannel    — a blocking loopback TCP socket with the 4-byte length
//     preamble, matching the paper's substrate. Every client end (subscriber
//     receive, remote master, log uploads, sync fetches) is one of these,
//     driven by its caller's thread;
//   * EpollChannel  — the server end of a TCP connection, accepted and
//     driven by the epoll reactor (epoll_channel.h). Same wire format, so a
//     blocking client and a reactor-driven server pair freely.
#pragma once

#include <memory>
#include <optional>

#include "common/bytes.h"

namespace adlp::transport {

/// Upper bound on a single framed message. A frame length above this is
/// treated as a protocol violation (corrupt or forged preamble): the channel
/// rejects it and closes instead of attempting the allocation. 64 MiB leaves
/// ample headroom over the largest legitimate payload (the ~1 MB camera
/// images of Table I).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one message (payload only; framing is the channel's concern).
  /// Returns false if the channel is closed. Thread-safe.
  virtual bool Send(BytesView payload) = 0;

  /// Blocks for the next message; std::nullopt once closed and drained.
  virtual std::optional<Bytes> Receive() = 0;

  /// Closes both directions; unblocks pending Receive() calls on both ends.
  virtual void Close() = 0;

  virtual bool IsOpen() const = 0;
};

using ChannelPtr = std::shared_ptr<Channel>;

struct ChannelPair {
  ChannelPtr a;
  ChannelPtr b;
};

}  // namespace adlp::transport
