#include "adlp/replicated_log.h"

#include <algorithm>
#include <stdexcept>

#include "obs/instrument.h"

namespace adlp::proto {

ReplicatedLogSink::ReplicatedLogSink(std::vector<Connector> replicas,
                                     Options options) {
  if (replicas.empty()) {
    // A sink with zero replicas would "commit" every append at seq 0 while
    // logging nothing — misconfiguration must be loud, not evidence-free.
    throw std::invalid_argument(
        "ReplicatedLogSink: at least one replica is required");
  }
  const std::size_t n = replicas.size();
  quorum_ = options.quorum == 0 ? n / 2 + 1 : std::min(options.quorum, n);
  acked_.assign(replicas.size(), 0);
  sinks_.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    ResilientLogSinkOptions leg = options.replica;
    leg.sink_id = options.sink_id;
    leg.on_ack = [this, i](std::uint64_t acked) { OnReplicaAck(i, acked); };
    sinks_.push_back(std::make_unique<ResilientLogSink>(
        std::move(replicas[i]), std::move(leg)));
  }
}

ReplicatedLogSink::~ReplicatedLogSink() {
  // The per-replica sinks' ack handlers call OnReplicaAck on reactor
  // loops. Each leg's destructor waits out a running one and turns later
  // ones away, so retiring the legs first means none runs once any other
  // member is gone.
  sinks_.clear();
}

void ReplicatedLogSink::RegisterKey(const crypto::ComponentId& id,
                                    const crypto::PublicKey& key) {
  (void)RegisterKeySeq(id, key);
}

void ReplicatedLogSink::Append(const LogEntry& entry) {
  (void)AppendSeq(entry);
}

std::uint64_t ReplicatedLogSink::RegisterKeySeq(const crypto::ComponentId& id,
                                                const crypto::PublicKey& key) {
  MutexLock fan(fan_mu_);
  std::uint64_t seq = 0;
  for (auto& sink : sinks_) {
    // Lockstep: every leg assigns the same seq because every leg has seen
    // the same number of frames.
    seq = sink->RegisterKeyAcked(id, key);
  }
  MutexLock lock(mu_);
  if (seq > last_seq_) {
    last_seq_ = seq;
    inflight_since_[seq] = MonotonicNowNs();
  }
  return seq;
}

std::uint64_t ReplicatedLogSink::AppendSeq(const LogEntry& entry) {
  MutexLock fan(fan_mu_);
  std::uint64_t seq = 0;
  for (auto& sink : sinks_) {
    seq = sink->AppendAcked(entry);
  }
  MutexLock lock(mu_);
  if (seq > last_seq_) {
    last_seq_ = seq;
    inflight_since_[seq] = MonotonicNowNs();
  }
  return seq;
}

SinkStats ReplicatedLogSink::ReplicaStats(std::size_t replica) const {
  return sinks_.at(replica)->Stats();
}

void ReplicatedLogSink::OnReplicaAck(std::size_t replica,
                                     std::uint64_t acked) {
  {
    MutexLock lock(mu_);
    if (acked <= acked_[replica]) return;
    acked_[replica] = acked;

    // Commit watermark: the q-th largest per-replica watermark — the
    // highest seq at least `quorum_` replicas have fully acknowledged.
    std::vector<std::uint64_t> sorted = acked_;
    std::nth_element(sorted.begin(), sorted.begin() + (quorum_ - 1),
                     sorted.end(), std::greater<>());
    const std::uint64_t commit = sorted[quorum_ - 1];
    if (commit <= committed_) return;
    committed_ = commit;

    const Timestamp now = MonotonicNowNs();
    std::uint64_t newly = 0;
    while (!inflight_since_.empty() &&
           inflight_since_.begin()->first <= commit) {
      obs::metric::ReplCommitNs().Record(static_cast<std::uint64_t>(
          now - inflight_since_.begin()->second));
      inflight_since_.erase(inflight_since_.begin());
      ++newly;
    }
    if (newly > 0) obs::metric::ReplCommittedTotal().Add(newly);
  }
  commit_cv_.NotifyAll();
}

std::uint64_t ReplicatedLogSink::CommittedSeq() const {
  MutexLock lock(mu_);
  return committed_;
}

std::uint64_t ReplicatedLogSink::LastSeq() const {
  MutexLock lock(mu_);
  return last_seq_;
}

bool ReplicatedLogSink::WaitCommitted(std::uint64_t seq,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (committed_ < seq) {
    if (commit_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      return committed_ >= seq;
    }
  }
  return true;
}

bool ReplicatedLogSink::DrainCommitted(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (committed_ < last_seq_) {
    if (commit_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      return committed_ >= last_seq_;
    }
  }
  return true;
}

ReplicatedSinkStats ReplicatedLogSink::Stats() const {
  MutexLock lock(mu_);
  ReplicatedSinkStats stats;
  stats.last_seq = last_seq_;
  stats.committed_seq = committed_;
  stats.replica_acked = acked_;
  return stats;
}

}  // namespace adlp::proto
