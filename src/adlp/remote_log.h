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

/// Network front-end feeding `server`: connections are accepted and drained
/// on the shared epoll reactor, so a logger serving thousands of uploaders
/// costs loop wakeups instead of threads. Ingestion runs on the loop thread,
/// so a `kBlock` tap on `server` that is full holds that loop until its
/// consumer catches up.
class LogServerService {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral).
  explicit LogServerService(LogServer& server, std::uint16_t port = 0);
  ~LogServerService();

  LogServerService(const LogServerService&) = delete;
  LogServerService& operator=(const LogServerService&) = delete;

  std::uint16_t Port() const { return listener_.Port(); }

  /// Stops accepting and waits until no ingestion handler can run.
  void Shutdown();

  /// Number of live connections. A connection is dropped when it closes, so
  /// a long-lived service with churning clients stays bounded by its live
  /// connection count, not its lifetime accept count.
  std::size_t ActiveConnections() EXCLUDES(mu_);

 private:
  /// Ingests one upload frame: parse, dedup acked-mode retransmissions via
  /// the server's per-sink watermark, apply, and acknowledge tagged frames
  /// on `channel`. Malformed frames are dropped, the connection kept.
  void IngestFrame(BytesView frame, transport::AsyncChannel& channel);
  /// Registers one accepted channel and starts its ingestion on its loop.
  void Adopt(std::shared_ptr<transport::EpollChannel> channel) EXCLUDES(mu_);

  LogServer& server_;
  transport::TcpListener listener_;
  std::atomic<bool> shutting_down_{false};
  std::unique_ptr<transport::ReactorAcceptor> acceptor_;
  Mutex mu_;
  std::vector<std::shared_ptr<transport::EpollChannel>> connections_
      GUARDED_BY(mu_);
};

}  // namespace adlp::proto
