// Catalog of the process-wide metric handles the runtime records into.
//
// Each accessor resolves its handle in the global registry exactly once
// (function-local static reference) and returns it by reference, so an
// instrument site pays the registry lookup on first use and a bare atomic
// op afterwards. Keeping every name, label set, and help string here makes
// the full metric surface greppable in one file.
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"

namespace adlp::obs::metric {

// --- pubsub -----------------------------------------------------------------

inline Counter& PublishTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_publish_total", {}, "Publications encoded and fanned out");
  return c;
}

inline Histogram& PublishEncodeNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_publish_encode_ns", {}, {},
      "Per-publication encode wall time (hash + sign + serialize)");
  return h;
}

inline Counter& DeliverTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_deliver_total", {}, "Messages delivered to application callbacks");
  return c;
}

inline Histogram& DeliverNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_deliver_ns", {}, {},
      "Subscriber-side handling wall time (decode + verify + sign + ack)");
  return h;
}

inline Counter& PublishQueueDropTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_publish_queue_drop_total", {},
      "Publications dropped by full per-link send queues");
  return c;
}

// --- protocol crypto + acknowledgements -------------------------------------

inline Histogram& SignNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_sign_ns", {}, {}, "Signature computation wall time");
  return h;
}

inline Histogram& VerifyNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_verify_ns", {}, {},
      "Inline (strict-mode) signature verification wall time");
  return h;
}

inline Histogram& HashNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_hash_ns", {}, {}, "Payload/message digest wall time");
  return h;
}

inline Counter& AckSentTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_ack_sent_total", {}, "Acknowledgements signed and returned");
  return c;
}

inline Counter& AckReceivedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_ack_received_total", {},
      "Acknowledgements matched to in-flight publications");
  return c;
}

inline Histogram& AckRttNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_ack_rtt_ns", {}, {},
      "Publication send to acknowledgement receipt round trip");
  return h;
}

inline Gauge& PendingAcks() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_pending_acks", {},
      "Publications sent and awaiting acknowledgement, all links");
  return g;
}

inline Counter& ProtocolRejectedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_protocol_rejected_total", {},
      "Inbound frames dropped by strict-mode verification or parse failure");
  return c;
}

// --- logging pipeline -------------------------------------------------------

inline Counter& LogEnteredTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_log_entered_total", {}, "Log entries entered into node queues");
  return c;
}

inline Gauge& LogQueueDepth() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_log_queue_depth", {},
      "Entries waiting in per-node logging queues");
  return g;
}

inline Counter& SinkSpooledTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_spooled_total", {},
      "Frames admitted to resilient-sink spools");
  return c;
}

inline Gauge& SinkSpoolDepth() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_sink_spool_depth", {},
      "Frames currently spooled across all resilient sinks");
  return g;
}

inline Gauge& SinkSpoolHighWater() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_sink_spool_high_water", {},
      "Maximum spool depth observed by any resilient sink");
  return g;
}

inline Counter& SinkSentTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_sent_total", {},
      "Frames successfully handed to the logger transport");
  return c;
}

inline Counter& SinkDroppedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_dropped_total", {},
      "Frames evicted by the oldest-drop spool overflow policy");
  return c;
}

inline Counter& SinkReconnectTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_reconnect_total", {},
      "Logger connections re-established after a failure");
  return c;
}

inline Counter& SinkConnectFailTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_connect_fail_total", {}, "Failed logger connection attempts");
  return c;
}

// --- replicated logger ------------------------------------------------------

inline Counter& EpochSealedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_epoch_sealed_total", {},
      "Merkle epochs sealed and signed by log servers");
  return c;
}

inline Counter& SinkAckedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_acked_total", {},
      "Spooled frames released by cumulative logger acks");
  return c;
}

inline Counter& ReplCommittedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repl_committed_total", {},
      "Upload frames acknowledged by a write quorum of replicas");
  return c;
}

inline Histogram& ReplCommitNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_repl_commit_ns", {}, {},
      "Append to quorum acknowledgement latency");
  return h;
}

inline Counter& ReplicaFindingsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_replica_findings_total", {},
      "Replica-level audit findings (divergence, bad seals, equivocation)");
  return c;
}

inline Counter& SinkEvictedUnackedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_sink_evicted_unacked_total", {},
      "Acked-mode spool evictions of frames the logger never acknowledged "
      "(past the spool horizon; only anti-entropy repair can recover them)");
  return c;
}

// --- anti-entropy repair ----------------------------------------------------

inline Counter& RepairRoundsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repair_rounds_total", {},
      "Anti-entropy gossip rounds run by repair agents");
  return c;
}

inline Counter& RepairEpochsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repair_epochs_total", {},
      "Epochs repaired or adopted from peers after Merkle verification");
  return c;
}

inline Counter& RepairRecordsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repair_records_total", {},
      "Records appended by verified peer repair");
  return c;
}

inline Counter& RepairRejectsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repair_rejects_total", {},
      "Peer-served repair material rejected by verification");
  return c;
}

inline Counter& RepairGapHeldTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_repair_gap_held_total", {},
      "Tagged upload frames refused because their seq skips the per-sink "
      "watermark (post-eviction replay held until repair fills the gap)");
  return c;
}

// --- transport --------------------------------------------------------------

inline Counter& TransportBytes(const char* kind, const char* dir) {
  return MetricsRegistry::Global().GetCounter(
      "adlp_transport_bytes_total", {{"kind", kind}, {"dir", dir}},
      "Payload bytes moved through transport channels");
}

inline Counter& TransportFrames(const char* kind, const char* dir) {
  return MetricsRegistry::Global().GetCounter(
      "adlp_transport_frames_total", {{"kind", kind}, {"dir", dir}},
      "Frames moved through transport channels");
}

inline Counter& FaultInjectedTotal(const char* fault) {
  return MetricsRegistry::Global().GetCounter(
      "adlp_fault_injected_total", {{"fault", fault}},
      "Faults injected by FaultInjectingChannel decorators");
}

// --- reactor ----------------------------------------------------------------

inline Counter& ReactorLoopIterations() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_reactor_loop_iterations_total", {},
      "Epoll event-loop wakeups across all reactor threads");
  return c;
}

inline Histogram& ReactorReadyEvents() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_reactor_ready_events", {},
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256},
      "Ready fds returned per epoll_wait call");
  return h;
}

inline Gauge& ReactorFdsWatched() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_reactor_fds_watched", {},
      "File descriptors currently registered with reactor loops");
  return g;
}

inline Histogram& ReactorWakeupNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_reactor_wakeup_ns", {}, {},
      "Cross-thread wakeup latency: eventfd signal to loop dispatch");
  return h;
}

inline Counter& ReactorTimersFired() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_reactor_timers_fired_total", {},
      "Timer-wheel callbacks dispatched by reactor loops");
  return c;
}

inline Counter& ReactorAcceptDeferredTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_reactor_accept_deferred_total", {},
      "Accept rounds deferred because the process hit its fd limit");
  return c;
}

// --- audit ------------------------------------------------------------------

inline Counter& AuditRunsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_audit_runs_total", {}, "Audit pipeline invocations");
  return c;
}

inline Counter& AuditPairsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_audit_pairs_total", {},
      "Transmission pairs evaluated by the auditor");
  return c;
}

inline Histogram& AuditShardNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_audit_shard_ns", {}, {},
      "Wall time of one topic partition of an audit");
  return h;
}

inline Histogram& AuditWallNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_audit_wall_ns", {}, {}, "End-to-end audit wall time");
  return h;
}

// --- streaming audit --------------------------------------------------------

inline Counter& StreamingEntriesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_streaming_entries_total", {},
      "Log entries consumed by streaming auditors");
  return c;
}

inline Counter& StreamingEpochsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_streaming_epochs_total", {},
      "Epochs sealed by streaming auditors");
  return c;
}

inline Counter& StreamingFlaggedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_streaming_flagged_total", {},
      "Pairs flagged online with a non-ok verdict at seal time");
  return c;
}

inline Counter& StreamingLateEntriesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_streaming_late_entries_total", {},
      "Entries that re-opened an already-sealed pair");
  return c;
}

inline Counter& StreamingEvictedPairsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_streaming_evicted_pairs_total", {},
      "Open pairs force-sealed at the streaming memory bound");
  return c;
}

inline Histogram& StreamingDetectNs() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "adlp_streaming_detect_ns", {}, {},
      "Online detection latency: first entry arrival to flagged seal");
  return h;
}

inline Gauge& StreamingOpenPairs() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_streaming_open_pairs", {},
      "Pairs currently open (unsealed) across streaming auditors");
  return g;
}

inline Gauge& StreamingOpenShards() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_streaming_open_shards", {},
      "Shards with at least one open pair across streaming auditors");
  return g;
}

// --- log server upload tap --------------------------------------------------

inline Counter& TapPushedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_log_tap_pushed_total", {},
      "Upload events admitted to log-server tap queues");
  return c;
}

inline Counter& TapDroppedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "adlp_log_tap_dropped_total", {},
      "Upload events dropped by full tap queues (drop-newest policy)");
  return c;
}

inline Gauge& TapDepth() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_log_tap_depth", {},
      "Events waiting in log-server tap queues");
  return g;
}

inline Gauge& TapHighWater() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "adlp_log_tap_high_water", {},
      "Maximum tap-queue depth observed");
  return g;
}

}  // namespace adlp::obs::metric
