// Read-side sync protocol for the replicated trusted logger.
//
// The upload path (remote_log.h) is strictly one-way: uploaders push frames,
// the server acks. Anti-entropy repair and wire-native auditing need the
// opposite direction — a way to ASK a live replica what it has sealed and to
// fetch the evidence backing those seals. This module adds request/response
// frame kinds to the same framed-TCP connection format:
//
//   * roots since epoch N       — the peer's signed seal chain frontier;
//   * a serialized-record range — the raw Merkle leaves, for repair;
//   * inclusion / consistency proofs for a claimed (index, size) or
//     (old_size, new_size) — so a fetched range is verified against the
//     peer's SIGNED roots before it is ever appended locally;
//   * per-seal upload watermarks + the key registry — the non-record state
//     a rejoining replica must merge to resume deduplicating uploads.
//
// Requests carry no authority: the server answers anything, because every
// response is either covered by a signed epoch root or verified against one
// by the requester. All parsers are hostile-length-safe (digests must be
// exactly 32 bytes, list sizes are bounded by the frame) and throw
// wire::WireError on garbage; they are exercised by the wire-fuzz corpora.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adlp/epoch.h"
#include "common/bytes.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "transport/channel.h"
#include "transport/tcp.h"

namespace adlp::proto {

class LogServer;

/// Server-side cap on records per SyncRecords response. A client asking for
/// more pages with repeated requests; a response claiming more is malformed.
/// The server also stops before a response would pass the frame cap
/// (transport::kMaxFrameBytes), but always serves at least one record.
inline constexpr std::uint64_t kMaxSyncRecordsPerBatch = 1024;

// --- Request / response payloads --------------------------------------------

struct SyncGetRoots {
  std::uint64_t since = 0;  // first epoch wanted
};
struct SyncRoots {
  std::vector<EpochRoot> roots;  // epochs [since, frontier), in order
};

struct SyncGetRecords {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};
struct SyncRecords {
  std::uint64_t first = 0;
  std::vector<Bytes> records;  // serialized records (Merkle leaves)
};

struct SyncGetProof {  // inclusion
  std::uint64_t index = 0;
  std::uint64_t tree_size = 0;
};
struct SyncGetConsistency {
  std::uint64_t old_size = 0;
  std::uint64_t new_size = 0;
};
struct SyncProof {
  std::vector<crypto::Digest> proof;  // empty = out-of-range request
};

struct SyncGetSealInfo {
  std::uint64_t epoch = 0;
};
/// The non-record state pinned to one seal: the per-sink upload watermarks
/// the sealing replica held at that seal (exact, because the replicated
/// sink fans out one frame order fleet-wide), plus the serialized key
/// registry (idempotent to re-register).
struct SyncSealInfo {
  std::uint64_t epoch = 0;
  std::map<std::string, std::uint64_t> watermarks;
  std::vector<std::pair<crypto::ComponentId, Bytes>> keys;
};

Bytes SerializeSyncGetRoots(const SyncGetRoots& m);
Bytes SerializeSyncRoots(const SyncRoots& m);
Bytes SerializeSyncGetRecords(const SyncGetRecords& m);
Bytes SerializeSyncRecords(const SyncRecords& m);
Bytes SerializeSyncGetProof(const SyncGetProof& m);
Bytes SerializeSyncGetConsistency(const SyncGetConsistency& m);
Bytes SerializeSyncInclusionProof(const SyncProof& m);
Bytes SerializeSyncConsistencyProof(const SyncProof& m);
Bytes SerializeSyncGetSealInfo(const SyncGetSealInfo& m);
Bytes SerializeSyncSealInfo(const SyncSealInfo& m);

/// Each parser throws wire::WireError unless the frame is exactly its kind.
SyncGetRoots ParseSyncGetRoots(BytesView frame);
SyncRoots ParseSyncRoots(BytesView frame);
SyncGetRecords ParseSyncGetRecords(BytesView frame);
SyncRecords ParseSyncRecords(BytesView frame);
SyncGetProof ParseSyncGetProof(BytesView frame);
SyncGetConsistency ParseSyncGetConsistency(BytesView frame);
SyncProof ParseSyncInclusionProof(BytesView frame);
SyncProof ParseSyncConsistencyProof(BytesView frame);
SyncGetSealInfo ParseSyncGetSealInfo(BytesView frame);
SyncSealInfo ParseSyncSealInfo(BytesView frame);

// --- Server dispatch ---------------------------------------------------------

/// Serves one sync request against `server`. Returns the serialized
/// response when `frame` is a sync request, std::nullopt when it is some
/// other frame kind (the caller falls through to upload handling), and
/// throws wire::WireError when it claims a sync kind but is malformed.
std::optional<Bytes> HandleSyncRequest(BytesView frame,
                                       const LogServer& server);

// --- Client ------------------------------------------------------------------

/// The peer surface repair and the wire auditor work from. Virtual so tests
/// can interpose hostile peers at the protocol level (the adversary matrix)
/// without a socket in the loop.
class PeerSync {
 public:
  virtual ~PeerSync() = default;
  /// Each fetch returns std::nullopt on transport failure or a malformed /
  /// wrong-kind response — the peer is unusable, not merely lying.
  virtual std::optional<std::vector<EpochRoot>> FetchRootsSince(
      std::uint64_t since) = 0;
  virtual std::optional<SyncRecords> FetchRecords(std::uint64_t first,
                                                  std::uint64_t count) = 0;
  virtual std::optional<std::vector<crypto::Digest>> FetchInclusionProof(
      std::uint64_t index, std::uint64_t tree_size) = 0;
  virtual std::optional<std::vector<crypto::Digest>> FetchConsistencyProof(
      std::uint64_t old_size, std::uint64_t new_size) = 0;
  virtual std::optional<SyncSealInfo> FetchSealInfo(std::uint64_t epoch) = 0;
};

/// Synchronous request/response client over one framed channel. The
/// connection must be dedicated to sync traffic (never upload on it): the
/// server sends exactly one response per request, in order, so each fetch is
/// a strict round trip. The channel's frame handler hands each reply to the
/// waiting fetch (transport::ReplySlot); an unrequested frame closes the
/// connection, and so does a reply later than a fixed deadline (5 s), so a
/// silent peer fails the fetch as a dropped one does. Once closed, every
/// fetch fails. A fetch blocks its caller: never call one on a reactor
/// loop. One agent thread drives it.
class SyncClient final : public PeerSync {
 public:
  /// Attaches to `channel`'s frames; call it right after the dial.
  explicit SyncClient(transport::ChannelPtr channel);
  ~SyncClient() override;

  /// Connects to `host:port` (repair peers and `adlp_audit --replica-addr`
  /// dial the same way). Returns nullptr on connect failure.
  static std::unique_ptr<SyncClient> Dial(
      std::uint16_t port, const transport::TcpConnectOptions& options = {});

  bool Ok() const;

  std::optional<std::vector<EpochRoot>> FetchRootsSince(
      std::uint64_t since) override;
  std::optional<SyncRecords> FetchRecords(std::uint64_t first,
                                          std::uint64_t count) override;
  std::optional<std::vector<crypto::Digest>> FetchInclusionProof(
      std::uint64_t index, std::uint64_t tree_size) override;
  std::optional<std::vector<crypto::Digest>> FetchConsistencyProof(
      std::uint64_t old_size, std::uint64_t new_size) override;
  std::optional<SyncSealInfo> FetchSealInfo(std::uint64_t epoch) override;

 private:
  std::optional<Bytes> RoundTrip(Bytes request);

  transport::ChannelPtr channel_;
  const std::shared_ptr<transport::ReplySlot> replies_ =
      std::make_shared<transport::ReplySlot>();
};

}  // namespace adlp::proto
