#include "adlp/sync_msgs.h"

#include <algorithm>

#include "adlp/log_server.h"
#include "wire/wire.h"

namespace adlp::proto {

namespace {

// Field 1 is the frame kind, shared with the upload codec (remote_log.cpp:
// key = 1, entry = 2, ack = 3) so one connection can carry both protocols.
enum : std::uint32_t {
  kFieldKind = 1,
  kFieldSince = 2,      // SyncGetRoots
  kFieldRoot = 3,       // SyncRoots: repeated SerializeEpochRoot
  kFieldFirst = 4,      // SyncGetRecords / SyncRecords
  kFieldCount = 5,      // SyncGetRecords
  kFieldRecord = 6,     // SyncRecords: repeated serialized record
  kFieldIndex = 7,      // SyncGetProof
  kFieldTreeSize = 8,   // SyncGetProof / SyncGetConsistency new_size
  kFieldOldSize = 9,    // SyncGetConsistency
  kFieldDigest = 10,    // proofs: repeated 32-byte node
  kFieldEpoch = 11,     // SyncGetSealInfo / SyncSealInfo
  kFieldWatermark = 12,  // SyncSealInfo: nested {1: sink_id, 2: seq}
  kFieldKeyEntry = 13,   // SyncSealInfo: nested {1: component, 2: key blob}
};

enum : std::uint64_t {
  kKindGetRoots = 4,
  kKindRoots = 5,
  kKindGetRecords = 6,
  kKindRecords = 7,
  kKindGetProof = 8,
  kKindInclusionProof = 9,
  kKindGetConsistency = 10,
  kKindConsistencyProof = 11,
  kKindGetSealInfo = 12,
  kKindSealInfo = 13,
};

crypto::Digest DigestFromBytes(const Bytes& b) {
  if (b.size() != crypto::kSha256DigestSize) {
    throw wire::WireError("sync: digest is not 32 bytes");
  }
  crypto::Digest d;
  std::copy(b.begin(), b.end(), d.begin());
  return d;
}

/// Generic single-pass field collector: every sync message is flat except
/// for the nested seal-info entries, so one loop shape fits all parsers.
template <typename OnField>
std::uint64_t ParseFields(BytesView frame, OnField&& on_field) {
  wire::Reader r(frame);
  std::uint64_t kind = 0;
  std::uint32_t field;
  wire::WireType type;
  while (r.NextField(field, type)) {
    if (field == kFieldKind) {
      kind = r.GetU64Value();
    } else if (!on_field(field, type, r)) {
      r.SkipValue(type);
    }
  }
  return kind;
}

void RequireKind(std::uint64_t got, std::uint64_t want, const char* what) {
  if (got != want) throw wire::WireError(std::string("sync: not a ") + what);
}

/// How long a SyncClient waits for a reply before it closes the connection:
/// a peer that accepts and never answers fails the fetch like a dropped one.
/// Generous enough for a full-frame (64 MiB) records reply under TSan.
constexpr std::int64_t kSyncReplyDeadlineMs = 5000;

/// Upper bounds on what a records reply spends around its records: the
/// kind and first fields, and each record's tag and length varint.
constexpr std::size_t kRecordsHeaderBytes = 2 * (1 + 10);
constexpr std::size_t kRecordFieldBytes = 1 + 10;

}  // namespace

// --- Serializers -------------------------------------------------------------

Bytes SerializeSyncGetRoots(const SyncGetRoots& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindGetRoots);
  w.PutU64(kFieldSince, m.since);
  return std::move(w).Take();
}

Bytes SerializeSyncRoots(const SyncRoots& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindRoots);
  for (const EpochRoot& root : m.roots) {
    w.PutBytes(kFieldRoot, SerializeEpochRoot(root));
  }
  return std::move(w).Take();
}

Bytes SerializeSyncGetRecords(const SyncGetRecords& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindGetRecords);
  w.PutU64(kFieldFirst, m.first);
  w.PutU64(kFieldCount, m.count);
  return std::move(w).Take();
}

Bytes SerializeSyncRecords(const SyncRecords& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindRecords);
  w.PutU64(kFieldFirst, m.first);
  for (const Bytes& record : m.records) w.PutBytes(kFieldRecord, record);
  return std::move(w).Take();
}

Bytes SerializeSyncGetProof(const SyncGetProof& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindGetProof);
  w.PutU64(kFieldIndex, m.index);
  w.PutU64(kFieldTreeSize, m.tree_size);
  return std::move(w).Take();
}

Bytes SerializeSyncGetConsistency(const SyncGetConsistency& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindGetConsistency);
  w.PutU64(kFieldOldSize, m.old_size);
  w.PutU64(kFieldTreeSize, m.new_size);
  return std::move(w).Take();
}

namespace {
Bytes SerializeProof(std::uint64_t kind, const SyncProof& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kind);
  for (const crypto::Digest& d : m.proof) {
    w.PutBytes(kFieldDigest, Bytes(d.begin(), d.end()));
  }
  return std::move(w).Take();
}
}  // namespace

Bytes SerializeSyncInclusionProof(const SyncProof& m) {
  return SerializeProof(kKindInclusionProof, m);
}

Bytes SerializeSyncConsistencyProof(const SyncProof& m) {
  return SerializeProof(kKindConsistencyProof, m);
}

Bytes SerializeSyncGetSealInfo(const SyncGetSealInfo& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindGetSealInfo);
  w.PutU64(kFieldEpoch, m.epoch);
  return std::move(w).Take();
}

Bytes SerializeSyncSealInfo(const SyncSealInfo& m) {
  wire::Writer w;
  w.PutU64(kFieldKind, kKindSealInfo);
  w.PutU64(kFieldEpoch, m.epoch);
  for (const auto& [sink, seq] : m.watermarks) {
    wire::Writer entry;
    entry.PutString(1, sink);
    entry.PutU64(2, seq);
    w.PutMessage(kFieldWatermark, entry);
  }
  for (const auto& [component, blob] : m.keys) {
    wire::Writer entry;
    entry.PutString(1, component);
    entry.PutBytes(2, blob);
    w.PutMessage(kFieldKeyEntry, entry);
  }
  return std::move(w).Take();
}

// --- Parsers -----------------------------------------------------------------

SyncGetRoots ParseSyncGetRoots(BytesView frame) {
  SyncGetRoots out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field != kFieldSince) return false;
        out.since = r.GetU64Value();
        return true;
      });
  RequireKind(kind, kKindGetRoots, "get-roots request");
  return out;
}

SyncRoots ParseSyncRoots(BytesView frame) {
  SyncRoots out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field != kFieldRoot) return false;
        out.roots.push_back(ParseEpochRoot(r.GetBytesValue()));
        return true;
      });
  RequireKind(kind, kKindRoots, "roots response");
  return out;
}

SyncGetRecords ParseSyncGetRecords(BytesView frame) {
  SyncGetRecords out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field == kFieldFirst) {
          out.first = r.GetU64Value();
        } else if (field == kFieldCount) {
          out.count = r.GetU64Value();
        } else {
          return false;
        }
        return true;
      });
  RequireKind(kind, kKindGetRecords, "get-records request");
  return out;
}

SyncRecords ParseSyncRecords(BytesView frame) {
  SyncRecords out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field == kFieldFirst) {
          out.first = r.GetU64Value();
        } else if (field == kFieldRecord) {
          if (out.records.size() >= kMaxSyncRecordsPerBatch) {
            throw wire::WireError("sync: oversized record batch");
          }
          out.records.push_back(r.GetBytesValue());
        } else {
          return false;
        }
        return true;
      });
  RequireKind(kind, kKindRecords, "records response");
  return out;
}

SyncGetProof ParseSyncGetProof(BytesView frame) {
  SyncGetProof out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field == kFieldIndex) {
          out.index = r.GetU64Value();
        } else if (field == kFieldTreeSize) {
          out.tree_size = r.GetU64Value();
        } else {
          return false;
        }
        return true;
      });
  RequireKind(kind, kKindGetProof, "get-proof request");
  return out;
}

SyncGetConsistency ParseSyncGetConsistency(BytesView frame) {
  SyncGetConsistency out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field == kFieldOldSize) {
          out.old_size = r.GetU64Value();
        } else if (field == kFieldTreeSize) {
          out.new_size = r.GetU64Value();
        } else {
          return false;
        }
        return true;
      });
  RequireKind(kind, kKindGetConsistency, "get-consistency request");
  return out;
}

namespace {
SyncProof ParseProof(BytesView frame, std::uint64_t want, const char* what) {
  SyncProof out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field != kFieldDigest) return false;
        // A proof over n leaves is at most ~2 log2(n) nodes; 256 covers any
        // tree this side of 2^128 leaves, so longer is hostile.
        if (out.proof.size() >= 256) {
          throw wire::WireError("sync: oversized proof");
        }
        out.proof.push_back(DigestFromBytes(r.GetBytesValue()));
        return true;
      });
  RequireKind(kind, want, what);
  return out;
}
}  // namespace

SyncProof ParseSyncInclusionProof(BytesView frame) {
  return ParseProof(frame, kKindInclusionProof, "inclusion-proof response");
}

SyncProof ParseSyncConsistencyProof(BytesView frame) {
  return ParseProof(frame, kKindConsistencyProof, "consistency-proof response");
}

SyncGetSealInfo ParseSyncGetSealInfo(BytesView frame) {
  SyncGetSealInfo out;
  const std::uint64_t kind =
      ParseFields(frame, [&](std::uint32_t field, wire::WireType,
                             wire::Reader& r) {
        if (field != kFieldEpoch) return false;
        out.epoch = r.GetU64Value();
        return true;
      });
  RequireKind(kind, kKindGetSealInfo, "get-seal-info request");
  return out;
}

SyncSealInfo ParseSyncSealInfo(BytesView frame) {
  SyncSealInfo out;
  const std::uint64_t kind = ParseFields(
      frame, [&](std::uint32_t field, wire::WireType, wire::Reader& r) {
        if (field == kFieldEpoch) {
          out.epoch = r.GetU64Value();
          return true;
        }
        if (field != kFieldWatermark && field != kFieldKeyEntry) return false;
        wire::Reader entry = r.GetMessageValue();
        std::string name;
        std::uint64_t seq = 0;
        Bytes blob;
        std::uint32_t sub_field;
        wire::WireType sub_type;
        while (entry.NextField(sub_field, sub_type)) {
          if (sub_field == 1) {
            name = entry.GetStringValue();
          } else if (sub_field == 2 && field == kFieldWatermark) {
            seq = entry.GetU64Value();
          } else if (sub_field == 2) {
            blob = entry.GetBytesValue();
          } else {
            entry.SkipValue(sub_type);
          }
        }
        if (field == kFieldWatermark) {
          out.watermarks[name] = seq;
        } else {
          out.keys.emplace_back(std::move(name), std::move(blob));
        }
        return true;
      });
  RequireKind(kind, kKindSealInfo, "seal-info response");
  return out;
}

// --- Server dispatch ---------------------------------------------------------

std::optional<Bytes> HandleSyncRequest(BytesView frame,
                                       const LogServer& server) {
  // Peek the kind without committing to a message shape.
  std::uint64_t kind = 0;
  {
    wire::Reader r(frame);
    std::uint32_t field;
    wire::WireType type;
    while (r.NextField(field, type)) {
      if (field == kFieldKind) {
        kind = r.GetU64Value();
        break;
      }
      r.SkipValue(type);
    }
  }
  switch (kind) {
    case kKindGetRoots: {
      const SyncGetRoots req = ParseSyncGetRoots(frame);
      SyncRoots resp;
      resp.roots = server.EpochRootsSince(req.since);
      return SerializeSyncRoots(resp);
    }
    case kKindGetRecords: {
      const SyncGetRecords req = ParseSyncGetRecords(frame);
      SyncRecords resp;
      resp.first = req.first;
      // Stop before the reply would pass the frame cap (the client would
      // drop it, and the connection), copying nothing beyond that point;
      // the first record always goes, so a client paging on progresses.
      std::size_t bytes = kRecordsHeaderBytes;
      const std::uint64_t count = std::min(req.count, kMaxSyncRecordsPerBatch);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::vector<Bytes> next = server.RecordRange(req.first + i, 1);
        if (next.empty()) break;
        bytes += kRecordFieldBytes + next.front().size();
        if (bytes > transport::kMaxFrameBytes && !resp.records.empty()) break;
        resp.records.push_back(std::move(next.front()));
      }
      return SerializeSyncRecords(resp);
    }
    case kKindGetProof: {
      const SyncGetProof req = ParseSyncGetProof(frame);
      SyncProof resp;
      resp.proof = server.InclusionProof(req.index, req.tree_size);
      return SerializeSyncInclusionProof(resp);
    }
    case kKindGetConsistency: {
      const SyncGetConsistency req = ParseSyncGetConsistency(frame);
      SyncProof resp;
      resp.proof = server.ConsistencyProof(req.old_size, req.new_size);
      return SerializeSyncConsistencyProof(resp);
    }
    case kKindGetSealInfo: {
      const SyncGetSealInfo req = ParseSyncGetSealInfo(frame);
      SyncSealInfo resp;
      resp.epoch = req.epoch;
      resp.watermarks = server.UploadWatermarksAtSeal(req.epoch);
      for (const crypto::ComponentId& id : server.Keys().RegisteredIds()) {
        if (auto key = server.Keys().Find(id)) {
          resp.keys.emplace_back(id, crypto::SerializePublicKey(*key));
        }
      }
      return SerializeSyncSealInfo(resp);
    }
    default:
      return std::nullopt;  // not a sync request; caller decides
  }
}

// --- SyncClient --------------------------------------------------------------

SyncClient::SyncClient(transport::ChannelPtr channel)
    : channel_(std::move(channel)) {
  if (!channel_) return;
  // The server sends exactly one reply per request, so a frame no request
  // waits for breaks the protocol: close rather than queue it.
  std::weak_ptr<transport::AsyncChannel> weak = channel_;
  channel_->StartAsync(
      [replies = replies_, weak](BytesView frame) {
        if (replies->Deliver(frame)) return;
        if (auto channel = weak.lock()) channel->Close();
      },
      [replies = replies_] { replies->Fail(); });
}

SyncClient::~SyncClient() {
  if (channel_) channel_->Close();
}

std::unique_ptr<SyncClient> SyncClient::Dial(
    std::uint16_t port, const transport::TcpConnectOptions& options) {
  transport::ChannelPtr channel = transport::TryTcpConnect(port, options);
  if (!channel) return nullptr;
  return std::make_unique<SyncClient>(std::move(channel));
}

bool SyncClient::Ok() const { return channel_ != nullptr && channel_->IsOpen(); }

std::optional<Bytes> SyncClient::RoundTrip(Bytes request) {
  if (!Ok()) return std::nullopt;
  return replies_->Call(channel_, request, kSyncReplyDeadlineMs);
}

std::optional<std::vector<EpochRoot>> SyncClient::FetchRootsSince(
    std::uint64_t since) {
  auto resp = RoundTrip(SerializeSyncGetRoots({since}));
  if (!resp) return std::nullopt;
  try {
    return ParseSyncRoots(*resp).roots;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

std::optional<SyncRecords> SyncClient::FetchRecords(std::uint64_t first,
                                                    std::uint64_t count) {
  auto resp = RoundTrip(SerializeSyncGetRecords({first, count}));
  if (!resp) return std::nullopt;
  try {
    return ParseSyncRecords(*resp);
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

std::optional<std::vector<crypto::Digest>> SyncClient::FetchInclusionProof(
    std::uint64_t index, std::uint64_t tree_size) {
  auto resp = RoundTrip(SerializeSyncGetProof({index, tree_size}));
  if (!resp) return std::nullopt;
  try {
    return ParseSyncInclusionProof(*resp).proof;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

std::optional<std::vector<crypto::Digest>> SyncClient::FetchConsistencyProof(
    std::uint64_t old_size, std::uint64_t new_size) {
  auto resp = RoundTrip(SerializeSyncGetConsistency({old_size, new_size}));
  if (!resp) return std::nullopt;
  try {
    return ParseSyncConsistencyProof(*resp).proof;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

std::optional<SyncSealInfo> SyncClient::FetchSealInfo(std::uint64_t epoch) {
  auto resp = RoundTrip(SerializeSyncGetSealInfo({epoch}));
  if (!resp) return std::nullopt;
  try {
    return ParseSyncSealInfo(*resp);
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

}  // namespace adlp::proto
