// Remote trusted logger over TCP.
//
// The paper's deployment pushes log entries one-way to a log server so that
// "any failure at the log server does not interrupt a normal operation of
// the ROS nodes". This module provides the upload wire codec and
// LogServerService, which accepts connections and feeds a local LogServer.
// The uploading side is ResilientLogSink (resilient_log.h).
//
// Components therefore run unchanged whether their sink is an in-process
// LogServer or a ResilientLogSink pointed at another process.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "adlp/log_server.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "adlp/log_sink.h"
#include "transport/channel.h"
#include "transport/epoll_channel.h"
#include "transport/tcp.h"

namespace adlp::proto {

/// Wire encoding of one logger upload (key registration or entry). The
/// (sink_id, seq) overloads tag the frame with the uploader's identity and
/// a monotone per-sink sequence number; a tagged frame asks the server to
/// acknowledge it (quorum-committed replication), an untagged one keeps the
/// original fire-and-forget contract.
Bytes SerializeLogUpload(const crypto::ComponentId& id,
                         const crypto::PublicKey& key);
Bytes SerializeLogUpload(const crypto::ComponentId& id,
                         const crypto::PublicKey& key,
                         std::string_view sink_id, std::uint64_t seq);
Bytes SerializeLogUpload(const LogEntry& entry);
Bytes SerializeLogUpload(const LogEntry& entry, std::string_view sink_id,
                         std::uint64_t seq);

/// Decoded upload frame. `sink_id`/`seq` are empty/0 for untagged frames.
struct LogUploadFrame {
  bool is_key = false;
  crypto::ComponentId component;  // key registrations
  Bytes key_blob;                 // key registrations
  Bytes entry_bytes;              // entries (still serialized)
  std::string sink_id;
  std::uint64_t seq = 0;
};

/// Parses an upload frame. Throws wire::WireError on garbage.
LogUploadFrame ParseLogUpload(BytesView frame);

/// Applies a parsed upload to a sink (key parse / entry parse included).
/// Throws wire::WireError when the nested payload is garbage.
void ApplyLogUpload(const LogUploadFrame& upload, LogSink& sink);

/// Parse + apply in one step (fire-and-forget ingestion path).
void ApplyLogUpload(BytesView frame, LogSink& sink);

/// Logger-to-uploader acknowledgement: every seq <= `seq` received on this
/// connection has been applied (or deduplicated).
Bytes SerializeLogAck(std::uint64_t seq);
/// Throws wire::WireError unless `frame` is an ack.
std::uint64_t ParseLogAck(BytesView frame);

/// Accept loop feeding `server`. Under kThreadPerConn: one ingestion thread
/// per connection. Under kReactor: connections are accepted and drained on
/// the shared epoll reactor, so a logger serving thousands of uploaders
/// costs loop wakeups instead of threads. Upload semantics are identical.
class LogServerService {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral).
  explicit LogServerService(
      LogServer& server, std::uint16_t port = 0,
      transport::TransportMode mode = transport::TransportMode::kThreadPerConn);
  ~LogServerService();

  LogServerService(const LogServerService&) = delete;
  LogServerService& operator=(const LogServerService&) = delete;

  std::uint16_t Port() const { return listener_.Port(); }

  /// Stops accepting and joins all ingestion threads.
  void Shutdown();

  /// Number of tracked connections after pruning finished ones. A long-lived
  /// service with churning clients stays bounded by its *live* connection
  /// count, not its lifetime accept count.
  std::size_t ActiveConnections();

 private:
  struct Connection {
    transport::ChannelPtr channel;
    std::thread thread;                            // kThreadPerConn only
    std::shared_ptr<transport::EpollChannel> async;  // kReactor only
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Ingests one upload frame: parse, dedup acked-mode retransmissions via
  /// the server's per-sink watermark, apply, and acknowledge tagged frames
  /// on `channel`. Malformed frames are dropped, the connection kept.
  void IngestFrame(BytesView frame, transport::Channel& channel);
  /// Registers one reactor-accepted channel and starts its async ingestion.
  void AdoptReactorChannel(std::shared_ptr<transport::EpollChannel> channel);
  /// Joins and erases connections whose ingestion loop has exited.
  void ReapFinishedLocked() REQUIRES(mu_);

  LogServer& server_;
  transport::TcpListener listener_;
  const transport::TransportMode mode_;
  std::atomic<bool> shutting_down_{false};
  std::thread accept_thread_;                           // kThreadPerConn
  std::unique_ptr<transport::ReactorAcceptor> acceptor_;  // kReactor
  Mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_ GUARDED_BY(mu_);
};

}  // namespace adlp::proto
