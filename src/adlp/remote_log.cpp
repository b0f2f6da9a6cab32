#include "adlp/remote_log.h"

#include "adlp/sync_msgs.h"
#include "crypto/bigint.h"
#include "obs/instrument.h"
#include "transport/reactor.h"
#include "wire/wire.h"

namespace adlp::proto {

namespace {

enum : std::uint32_t {
  kFieldKind = 1,       // 1 = key registration, 2 = log entry, 3 = ack
  kFieldComponent = 2,
  kFieldKeyBlob = 3,    // crypto::SerializePublicKey encoding
  kFieldEntry = 5,
  kFieldSinkId = 6,     // uploader identity (acked replication mode)
  kFieldSeq = 7,        // per-sink upload seq / cumulative acked seq
};

enum : std::uint64_t {
  kKindKey = 1,
  kKindEntry = 2,
  kKindAck = 3,
};

void PutAckTag(wire::Writer& w, std::string_view sink_id, std::uint64_t seq) {
  w.PutString(kFieldSinkId, sink_id);
  w.PutU64(kFieldSeq, seq);
}

}  // namespace

Bytes SerializeLogUpload(const crypto::ComponentId& id,
                         const crypto::PublicKey& key) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindKey);
  w.PutString(kFieldComponent, id);
  w.PutBytes(kFieldKeyBlob, crypto::SerializePublicKey(key));
  return std::move(w).Take();
}

Bytes SerializeLogUpload(const crypto::ComponentId& id,
                         const crypto::PublicKey& key,
                         std::string_view sink_id, std::uint64_t seq) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindKey);
  w.PutString(kFieldComponent, id);
  w.PutBytes(kFieldKeyBlob, crypto::SerializePublicKey(key));
  PutAckTag(w, sink_id, seq);
  return std::move(w).Take();
}

Bytes SerializeLogUpload(const LogEntry& entry) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindEntry);
  w.PutBytes(kFieldEntry, SerializeLogEntry(entry));
  return std::move(w).Take();
}

Bytes SerializeLogUpload(const LogEntry& entry, std::string_view sink_id,
                         std::uint64_t seq) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindEntry);
  w.PutBytes(kFieldEntry, SerializeLogEntry(entry));
  PutAckTag(w, sink_id, seq);
  return std::move(w).Take();
}

LogUploadFrame ParseLogUpload(BytesView frame) {
  wire::Reader r(frame);
  std::uint64_t kind = 0;
  LogUploadFrame out;

  std::uint32_t field;
  wire::WireType type;
  while (r.NextField(field, type)) {
    switch (field) {
      case kFieldKind:
        kind = r.GetU64Value();
        break;
      case kFieldComponent:
        out.component = r.GetStringValue();
        break;
      case kFieldKeyBlob:
        out.key_blob = r.GetBytesValue();
        break;
      case kFieldEntry:
        out.entry_bytes = r.GetBytesValue();
        break;
      case kFieldSinkId:
        out.sink_id = r.GetStringValue();
        break;
      case kFieldSeq:
        out.seq = r.GetU64Value();
        break;
      default:
        r.SkipValue(type);
        break;
    }
  }

  if (kind == kKindKey) {
    out.is_key = true;
  } else if (kind != kKindEntry) {
    throw wire::WireError("log upload: unknown kind");
  }
  return out;
}

void ApplyLogUpload(const LogUploadFrame& upload, LogSink& sink) {
  if (upload.is_key) {
    sink.RegisterKey(upload.component, crypto::ParsePublicKey(upload.key_blob));
  } else {
    sink.Append(DeserializeLogEntry(upload.entry_bytes));
  }
}

void ApplyLogUpload(BytesView frame, LogSink& sink) {
  ApplyLogUpload(ParseLogUpload(frame), sink);
}

Bytes SerializeLogAck(std::uint64_t seq) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindAck);
  w.PutU64(kFieldSeq, seq);
  return std::move(w).Take();
}

std::uint64_t ParseLogAck(BytesView frame) {
  wire::Reader r(frame);
  std::uint64_t kind = 0;
  std::uint64_t seq = 0;
  std::uint32_t field;
  wire::WireType type;
  while (r.NextField(field, type)) {
    switch (field) {
      case kFieldKind:
        kind = r.GetU64Value();
        break;
      case kFieldSeq:
        seq = r.GetU64Value();
        break;
      default:
        r.SkipValue(type);
        break;
    }
  }
  if (kind != kKindAck) throw wire::WireError("log ack: wrong kind");
  return seq;
}

// --- LogServerService --------------------------------------------------------

LogServerService::LogServerService(LogServer& server, std::uint16_t port)
    : server_(server), listener_(port) {
  acceptor_ = std::make_unique<transport::ReactorAcceptor>(
      transport::Reactor::Global(), listener_,
      [this](std::shared_ptr<transport::EpollChannel> channel) {
        Adopt(std::move(channel));
      });
}

LogServerService::~LogServerService() { Shutdown(); }

void LogServerService::Adopt(std::shared_ptr<transport::EpollChannel> channel) {
  // Runs on a reactor loop thread (the acceptor's callback). Safe to touch
  // `this`: Shutdown() closes the acceptor with its loop barrier before the
  // service is torn down, so no callback outlives the service.
  {
    MutexLock lock(mu_);
    if (shutting_down_.load()) {
      channel->Close();
      return;
    }
    connections_.push_back(channel);
  }
  // Unlocked: the close handler takes mu_.
  transport::EpollChannel* raw = channel.get();
  channel->StartAsync(
      [this, raw](BytesView frame) { IngestFrame(frame, *raw); },
      // The uploader left: drop the only owning reference, freeing the fd.
      [this, raw] {
        MutexLock lock(mu_);
        std::erase_if(connections_,
                      [raw](const auto& c) { return c.get() == raw; });
      });
}

void LogServerService::IngestFrame(BytesView frame,
                                   transport::AsyncChannel& channel) {
  try {
    // Read-side sync protocol (repair agents, wire auditors) shares the
    // connection format with uploads; requests are answered in order.
    if (auto response = HandleSyncRequest(frame, server_)) {
      (void)channel.Send(*response);
      return;
    }
    const LogUploadFrame upload = ParseLogUpload(frame);
    if (!upload.sink_id.empty() && upload.seq != 0) {
      // Acked replication mode: skip retransmitted frames (the per-sink
      // watermark is exact because delivery is FIFO per connection and a
      // reconnect replays from the first unacked frame in order), then ack
      // the seq so the uploader can release its spool. The nested payload
      // is deserialized BEFORE the watermark moves: a malformed frame that
      // advanced the watermark but failed to apply would be deduplicated on
      // every retransmission and never acked — the sink would be wedged and
      // a hostile uploader could spoof (sink_id, huge seq) to suppress all
      // future honest frames for that sink.
      //
      // A frame that SKIPS past watermark + 1 is held, unacked, and the
      // connection is closed: the uploader's spool evicted unacked frames
      // past its horizon, and applying the survivors out of order would
      // fork this replica off the fleet's record order permanently. The
      // close sends the leg back into reconnect-with-backoff; once the
      // repair agent fills the gap from a peer (advancing the watermark),
      // the replay applies cleanly as duplicates or successors.
      LogServer::UploadSeqOutcome outcome;
      if (upload.is_key) {
        const crypto::PublicKey key = crypto::ParsePublicKey(upload.key_blob);
        outcome = server_.NoteUploadSeqGapChecked(upload.sink_id, upload.seq);
        if (outcome == LogServer::UploadSeqOutcome::kFresh) {
          server_.RegisterKey(upload.component, key);
        }
      } else {
        const LogEntry entry = DeserializeLogEntry(upload.entry_bytes);
        outcome =
            server_.ApplyTaggedEntry(upload.sink_id, upload.seq, entry);
      }
      if (outcome == LogServer::UploadSeqOutcome::kGap) {
        obs::metric::RepairGapHeldTotal().Add(1);
        channel.Close();
        return;
      }
      (void)channel.Send(SerializeLogAck(upload.seq));
    } else {
      ApplyLogUpload(upload, server_);
    }
  } catch (const wire::WireError&) {
    // Malformed upload: drop the frame, keep the connection. The logger is
    // append-only and trusts nothing it cannot parse.
  }
}

std::size_t LogServerService::ActiveConnections() {
  MutexLock lock(mu_);
  return connections_.size();
}

void LogServerService::Shutdown() {
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

}  // namespace adlp::proto
