// Quorum-committed fan-out to a fleet of logger replicas.
//
// A single trusted logger is a single point of audit-evidence loss (and a
// single party to bribe). `ReplicatedLogSink` uploads every frame to N
// `LogServer` replicas — one acked-mode `ResilientLogSink` per replica, so
// each leg keeps its own spool, reconnect backoff, and retransmission, as a
// reactor state machine that owns no thread — and
// tracks a *commit watermark*: seq k is committed once a write quorum of q
// replicas has acknowledged everything up to k. The data plane still never
// blocks: Append fans out to the per-replica spools and returns; callers
// that need durability (orderly shutdown, the replication tests) wait on
// WaitCommitted / DrainCommitted.
//
// Ordering: fan-out holds one lock across all replicas, so every replica
// sees the identical frame sequence and the per-sink seq counters advance
// in lockstep — seq k names the same logical frame on every replica, which
// is what makes "q-th largest per-replica watermark" a meaningful commit
// point and what the auditor's cross-replica epoch-root comparison leans
// on (honest replicas ingest the same stream; divergent sealed roots are
// therefore equivocation, not reordering).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "adlp/log_sink.h"
#include "adlp/resilient_log.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp::proto {

struct ReplicatedSinkStats {
  /// Highest seq assigned to an upload frame.
  std::uint64_t last_seq = 0;
  /// Highest seq acknowledged by at least `quorum` replicas.
  std::uint64_t committed_seq = 0;
  /// Per-replica cumulative acked watermark.
  std::vector<std::uint64_t> replica_acked;
};

struct ReplicatedLogSinkOptions {
  /// Write quorum q. 0 = majority (N/2 + 1). Clamped to [1, N].
  std::size_t quorum = 0;
  /// Identity carried in every frame's ack tag (shared by all legs: each
  /// replica is a separate server with its own watermark map).
  std::string sink_id = "repl-sink";
  /// Template for each per-replica sink; `sink_id` and `on_ack` are
  /// overridden per leg.
  ResilientLogSinkOptions replica;
};

class ReplicatedLogSink final : public LogSink {
 public:
  using Options = ReplicatedLogSinkOptions;
  using Connector = ResilientLogSink::Connector;

  /// One connector per replica. At least one replica is required: an empty
  /// fleet throws std::invalid_argument (a zero-replica sink would commit
  /// everything while logging nothing).
  explicit ReplicatedLogSink(std::vector<Connector> replicas,
                             Options options = {});
  ~ReplicatedLogSink() override;

  ReplicatedLogSink(const ReplicatedLogSink&) = delete;
  ReplicatedLogSink& operator=(const ReplicatedLogSink&) = delete;

  // --- LogSink (data plane; never blocks on the network) ---
  void RegisterKey(const crypto::ComponentId& id,
                   const crypto::PublicKey& key) override;
  void Append(const LogEntry& entry) override;

  /// Fan-out variants returning the shared seq assigned to the frame.
  std::uint64_t RegisterKeySeq(const crypto::ComponentId& id,
                               const crypto::PublicKey& key) EXCLUDES(mu_);
  std::uint64_t AppendSeq(const LogEntry& entry) EXCLUDES(mu_);

  std::size_t ReplicaCount() const { return sinks_.size(); }
  std::size_t Quorum() const { return quorum_; }
  /// Per-leg delivery stats (tests, chaos experiments).
  SinkStats ReplicaStats(std::size_t replica) const;

  std::uint64_t CommittedSeq() const EXCLUDES(mu_);
  std::uint64_t LastSeq() const EXCLUDES(mu_);

  /// Blocks until seq is quorum-committed or `timeout` elapses.
  bool WaitCommitted(std::uint64_t seq, std::chrono::milliseconds timeout)
      EXCLUDES(mu_);
  /// Blocks until every assigned seq is quorum-committed.
  bool DrainCommitted(std::chrono::milliseconds timeout) EXCLUDES(mu_);

  ReplicatedSinkStats Stats() const EXCLUDES(mu_);

 private:
  void OnReplicaAck(std::size_t replica, std::uint64_t acked) EXCLUDES(mu_);

  std::size_t quorum_ = 1;

  mutable Mutex mu_;
  CondVar commit_cv_;
  /// Serializes fan-out (separate from mu_ so a slow serialize never blocks
  /// ack processing): all replicas must observe the same frame order.
  Mutex fan_mu_;
  std::vector<std::uint64_t> acked_ GUARDED_BY(mu_);
  std::uint64_t committed_ GUARDED_BY(mu_) = 0;
  std::uint64_t last_seq_ GUARDED_BY(mu_) = 0;
  /// Append time of not-yet-committed seqs (commit-latency histogram).
  std::map<std::uint64_t, Timestamp> inflight_since_ GUARDED_BY(mu_);

  // Destroyed first (see destructor): their ack handlers call back into
  // OnReplicaAck, and a leg's destructor returns only once none can.
  std::vector<std::unique_ptr<ResilientLogSink>> sinks_;
};

}  // namespace adlp::proto
