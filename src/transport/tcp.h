// Loopback TCP transport: real sockets, 4-byte length preamble per message
// (the framing the paper attributes to the ROS transport layer).
//
// A dial blocks until the connection is up, then hands the socket to
// Reactor::Global() as an adopted EpollChannel, so every TCP end in the
// tree shares one framer; the caller attaches its handlers right after.
// The first dial therefore starts the global
// reactor's loop threads, also in a client-only process such as
// `adlp_audit --replica-addr`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "transport/channel.h"

namespace adlp::transport {

/// Listening socket bound to 127.0.0.1. Port 0 picks a free port. Servers
/// accept on it with a ReactorAcceptor.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bound port (useful after binding port 0).
  std::uint16_t Port() const { return port_; }

  /// Stops accepting: later dials are refused. The socket is only shut down
  /// here; the fd is released in the destructor, so an acceptor still
  /// polling it never sees its fd number recycled.
  void Close();

  /// Raw listening socket, for callers that drive readiness themselves
  /// (ReactorAcceptor). Owned by the listener; do not close.
  int NativeHandle() const { return fd_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Knobs for establishing a TCP connection. The defaults reproduce the
/// historical behaviour: one blocking attempt.
struct TcpConnectOptions {
  /// Total connect attempts before giving up. Must be >= 1.
  int attempts = 1;
  /// Per-attempt timeout. <= 0 means a plain blocking connect (OS default).
  std::int64_t connect_timeout_ms = 0;
  /// Delay before the second attempt; doubles per failure up to
  /// `max_retry_delay_ms`.
  std::int64_t retry_delay_ms = 50;
  std::int64_t max_retry_delay_ms = 1000;
  /// Target address (IPv4 dotted quad).
  std::string host = "127.0.0.1";
};

/// Connects to 127.0.0.1:`port`, honouring timeout/retry options. Throws
/// std::system_error once all attempts are exhausted.
std::shared_ptr<AsyncChannel> TcpConnect(
    std::uint16_t port, const TcpConnectOptions& options = {});

/// Non-throwing variant: nullptr once all attempts are exhausted. This is
/// the building block for reconnect loops (ResilientLogSink, RemoteMaster),
/// where a dead peer is an expected state rather than an error.
std::shared_ptr<AsyncChannel> TryTcpConnect(
    std::uint16_t port, const TcpConnectOptions& options = {});

/// As TryTcpConnect but returns the raw connected socket (-1 once all
/// attempts are exhausted), for callers that adopt the fd on a reactor of
/// their own (EpollChannel::Adopt). The caller owns the fd.
int TryTcpConnectFd(std::uint16_t port, const TcpConnectOptions& options = {});

}  // namespace adlp::transport
