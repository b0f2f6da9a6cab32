// A live ADLP deployment driven through the library's public API: loggers,
// components, an open-loop publish generator, and an online auditor on the
// logger's tap. Every latency the benchmark reports is read from the
// preallocated per-transmission slots below, stamped from the benchmark's
// own decorators (LogSink, LogPipe), subscriber callbacks and tap consumer.
//
// Transmission i publishes on topic i % T with that topic's seq i / T + 1,
// and is due at start + i / rate. Its entries are the publisher's entry for
// each subscriber (slot k = s) and each subscriber's entry (k = S + s).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adlp/component.h"
#include "adlp/log_server.h"
#include "adlp/log_tap.h"
#include "adlp/remote_log.h"
#include "adlp/replicated_log.h"
#include "audit/streaming_auditor.h"
#include "common.h"
#include "pubsub/master.h"

namespace perfbench {

using PipeWrapper = std::function<std::unique_ptr<adlp::proto::LogPipe>(
    adlp::proto::LogPipe& inner, const adlp::proto::NodeIdentity& identity)>;

struct FleetSpec {
  std::string payload_type;  // sim::PaperDataType name
  std::vector<std::string> topics;
  std::vector<std::size_t> topic_publisher;  // topic -> publishers index
  std::vector<std::string> publishers;
  std::vector<std::string> subscribers;  // each subscribes to every topic
  adlp::pubsub::TransportKind transport = adlp::pubsub::TransportKind::kInProc;
  adlp::crypto::SigAlgorithm alg = adlp::crypto::SigAlgorithm::kRsaPkcs1Sha256;
  /// 0: one in-process LogServer. N: a ReplicatedLogSink over N
  /// LogServerService replicas on loopback TCP (majority quorum).
  std::size_t replicas = 0;
  /// Run a StreamingAuditor on the (first) logger's lossless tap.
  bool audit_tap = true;
  /// Publishes per second, over all topics.
  double rate_hz = 20.0;
  /// Distinct payloads cycled through (0 = one per transmission).
  std::size_t payload_pool = 0;
  /// Fault injection per component name (forensic fleet only).
  std::map<std::string, PipeWrapper> faults;
};

class Fleet {
 public:
  /// Builds the whole deployment (keys, loggers, links, auditor) for
  /// `transmissions` transmissions. The constructor is the set-up cost.
  Fleet(FleetSpec spec, std::uint64_t seed, std::size_t transmissions,
        bool traced);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Publishes every transmission on the open-loop schedule from
  /// `start_ns`, then returns (does not wait for the system).
  void Run(std::int64_t start_ns);
  /// Waits until every transmission is delivered, and (with a tap) has a
  /// verdict, and (replicated) every frame is quorum-committed. False on
  /// deadline.
  bool Drain(std::int64_t deadline_ns);
  /// Stops the components (flushing their logs), waits for the loggers,
  /// stops the auditor consumer. Idempotent.
  void Shutdown(std::int64_t deadline_ns);

  // --- Shape -------------------------------------------------------------
  std::size_t Transmissions() const { return n_; }
  std::size_t Subscribers() const { return spec_.subscribers.size(); }
  std::size_t EntriesPerTx() const { return 2 * Subscribers(); }
  std::int64_t PeriodNs() const { return period_ns_; }
  std::int64_t StartNs() const { return start_ns_; }
  const FleetSpec& spec() const { return spec_; }
  /// (tx, k) slot of a log entry, or -1 when it is not one of the
  /// transmissions' expected entries.
  std::int64_t SlotOf(const adlp::proto::LogEntry& entry) const;
  std::optional<std::size_t> TopicIndex(const std::string& topic) const;

  // --- Slots (read after Shutdown) ----------------------------------------
  static std::int64_t Get(const std::vector<std::atomic<std::int64_t>>& v,
                          std::size_t i) {
    return v[i].load(std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> pub_start;   // per tx
  std::vector<std::atomic<std::int64_t>> pub_end;     // per tx
  std::vector<std::atomic<std::int64_t>> seal_start;  // per tx
  std::vector<std::atomic<std::int64_t>> verdict;     // per tx
  std::vector<std::atomic<std::int64_t>> deliver;     // per tx * S + s
  std::vector<std::atomic<std::int64_t>> pipe_enter;  // per slot (traced)
  std::vector<std::atomic<std::int64_t>> append_start;  // per slot (traced)
  std::vector<std::atomic<std::int64_t>> append_end;  // per slot
  std::vector<std::atomic<std::int64_t>> pop;         // per slot
  std::vector<std::atomic<std::int64_t>> fed_end;     // per slot (traced)
  /// Replicated: commit time of the slot's frame (0 = never committed).
  std::int64_t CommitNs(std::size_t slot) const;
  /// Seal durations of the online auditor, ns.
  const std::vector<std::int64_t>& SealDurations() const { return seal_ns_; }
  /// Transmissions whose pair the online auditor flagged.
  std::vector<bool> FlaggedTx() const;

  // --- Counters ----------------------------------------------------------
  std::int64_t SinkBusyNs() const { return sink_busy_ns_.load(); }
  std::int64_t AuditBusyNs() const { return audit_busy_ns_.load(); }
  std::uint64_t EntriesAudited() const { return entries_audited_.load(); }
  std::uint64_t UnexpectedEntries() const { return unexpected_entries_.load(); }
  std::int64_t PublisherCpuNs() const;

  // --- Library objects ---------------------------------------------------
  adlp::proto::LogServer& PrimaryServer() { return *servers_.front(); }
  std::vector<std::unique_ptr<adlp::proto::LogServer>>& Servers() {
    return servers_;
  }
  adlp::proto::ReplicatedLogSink* Replicated() { return repl_.get(); }
  /// The sink every component logs through.
  adlp::proto::LogSink& Sink();
  adlp::audit::StreamingAuditor* Auditor() { return auditor_.get(); }
  adlp::proto::Component& ComponentNamed(const std::string& name);
  const adlp::audit::Topology& Topology() const { return topology_; }
  const Bytes& SamplePayload() const { return payloads_.front(); }
  /// A copy of the first publisher entry the logger received (traced).
  std::optional<adlp::proto::LogEntry> SamplePublisherEntry() const;

 private:
  class TimedSink;
  class TimedPipe;
  class OwningPipe;

  Bytes PayloadFor(std::size_t tx) const;
  void ConsumeTap();
  void WatchCommits();

  FleetSpec spec_;
  const bool traced_;
  const std::size_t n_;
  std::int64_t period_ns_ = 0;
  std::int64_t start_ns_ = 0;
  std::vector<Bytes> payloads_;

  // Loggers. Replicated: servers_[i] behind services_[i], fed by repl_.
  std::vector<std::unique_ptr<adlp::proto::LogServer>> servers_;
  std::vector<std::unique_ptr<adlp::proto::LogServerService>> services_;
  std::unique_ptr<adlp::proto::ReplicatedLogSink> repl_;
  std::vector<std::atomic<std::uint64_t>> sink_seq_;   // per slot
  std::vector<std::atomic<std::int64_t>> commit_at_;   // per sink seq
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<adlp::proto::LogTapQueue> tap_;

  adlp::pubsub::Master master_;
  std::vector<std::unique_ptr<adlp::proto::Component>> components_;
  std::vector<adlp::pubsub::Publisher*> topic_handles_;
  adlp::audit::Topology topology_;
  std::unique_ptr<adlp::audit::StreamingAuditor> auditor_;

  std::atomic<std::int64_t> sink_busy_ns_{0};
  std::atomic<std::int64_t> audit_busy_ns_{0};
  std::atomic<std::uint64_t> entries_audited_{0};
  std::atomic<std::uint64_t> unexpected_entries_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> verdicts_{0};
  std::vector<std::int64_t> seal_ns_;  // consumer thread until joined
  std::vector<std::atomic<bool>> flagged_;
  std::vector<std::int64_t> publisher_cpu_start_;

  mutable std::atomic<bool> sample_taken_{false};
  std::optional<adlp::proto::LogEntry> sample_entry_;

  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;
  // Declared last: they use everything above.
  std::thread consumer_;
  std::thread commit_watcher_;
};

}  // namespace perfbench
