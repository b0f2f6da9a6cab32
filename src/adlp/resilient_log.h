// Fault-tolerant delivery of log entries to the remote trusted logger
// (LogServerService, remote_log.h).
//
// With default options the sink keeps the paper's fire-and-forget contract —
// strictly one-way push, never any back-pressure on the data plane — and
// makes delivery survive logger crashes and partitions:
//
//   * every upload frame (key registration or entry) enters a bounded
//     in-memory spool; Append/RegisterKey only serialize and enqueue, so the
//     calling component never blocks on the network;
//   * the sink owns no thread. It is one state machine on a strand of
//     Reactor::Global(): an append kicks a coalesced pump task that moves
//     the spool onto the connection (an adopted EpollChannel, whose Send
//     never blocks); a failed send re-queues the frame at the front (order
//     preserved) and triggers reconnection, paced by exponential backoff +
//     deterministic jitter on a reactor timer; the dial itself is blocking
//     and runs on the strand;
//   * on every reconnect the sink first re-registers all known public keys
//     and then replays the spool (the first connection gets the keys from
//     the spool in their original order), so a logger restarted with empty
//     state still ends up able to audit everything it received;
//   * when the spool is full the OLDEST frame is evicted and counted in
//     `SinkStats::entries_dropped` — bounded memory beats unbounded growth
//     during a long partition, and the auditor classifies the evicted
//     entries as hidden (Fig. 5), which is exactly the honest outcome.
//
// What can still be lost: frames already written to a connection whose peer
// died before ingesting them (TCP gives no application-level ack, and adding
// one would reintroduce the back-pressure the paper excludes), including
// what a stalled but connected logger left in the connection's send buffer
// when that buffer hit its cap and closed the connection. See DESIGN.md
// §"Failure model and log-delivery guarantees".
//
// Acked mode (`sink_id` non-empty) closes that gap for replicated loggers:
// every frame is tagged (sink_id, seq) and retained in the spool until the
// server's cumulative acknowledgement covers it; a reconnect retransmits
// all unacked frames in order and the server deduplicates by per-sink seq
// watermark, so each frame is applied exactly once. The data plane is still
// never blocked — acks ride back on the same connection and reach the
// connection's frame handler on its reactor loop, and the connection's close
// edge triggers reconnect-and-replay. Key re-registration on
// reconnect covers only the already-acked registrations; an unacked one is
// still spooled and replays strictly in seq order with the other unacked
// frames (out-of-order replay would advance the watermark past unacked
// entries and lose them). The backoff exponent resets only when an ack
// advances the watermark: a connection the server closes without one (the
// gap hold below) counts as a failed attempt, so a gap-held leg backs off
// instead of redialling in a tight loop. The one caveat: a spool overflow
// in acked mode drops the oldest unacked frame — the spool horizon has
// passed and no retransmission can ever deliver it. Such evictions are
// surfaced in SinkStats::entries_evicted_unacked (and
// adlp_sink_evicted_unacked_total); the server holds the post-eviction
// replay (its seq skips the watermark) until replica anti-entropy repair
// (repair.h) fills the gap from a peer. Size the spool for the expected
// outage window; repair is the backstop, not the plan.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "adlp/log_sink.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "transport/channel.h"
#include "transport/reactor.h"
#include "transport/reconnect.h"
#include "transport/tcp.h"

namespace adlp::proto {

/// Delivery counters exposed for tests, chaos experiments, and operators.
struct SinkStats {
  /// Frames successfully handed to the transport.
  std::uint64_t entries_sent = 0;
  /// Frames currently waiting in the spool.
  std::uint64_t entries_spooled = 0;
  /// Maximum spool depth observed.
  std::uint64_t spool_high_water = 0;
  /// Frames evicted by the oldest-drop overflow policy.
  std::uint64_t entries_dropped = 0;
  /// Acked mode only: evicted frames the server had NOT acknowledged — the
  /// spool horizon passed and retransmission can never deliver them, so
  /// only replica anti-entropy repair (repair.h) can make the server whole.
  /// Always <= entries_dropped; in acked mode the two are equal (acks
  /// release acked frames from the front, so anything still spooled with a
  /// seq is unacked).
  std::uint64_t entries_evicted_unacked = 0;
  /// Successful connections after the first (i.e. re-establishments).
  std::uint64_t reconnects = 0;
  /// Failed connection attempts.
  std::uint64_t connect_failures = 0;
  /// Acked mode only: frames released from the spool by server acks.
  std::uint64_t entries_acked = 0;
  /// Acked mode only: highest cumulative seq the server acknowledged.
  std::uint64_t acked_seq = 0;
  /// Acked mode only: highest seq assigned to an upload.
  std::uint64_t last_seq = 0;
};

struct ResilientLogSinkOptions {
  /// Spool capacity in frames. Oldest frame is dropped on overflow.
  std::size_t spool_capacity = 4096;
  /// Reconnect pacing.
  transport::BackoffPolicy backoff{10, 2000, 2.0, 0.25};
  /// Seed for the backoff jitter stream (deterministic per sink).
  std::uint64_t backoff_seed = 0x5eed'1095'1e57ull;
  /// Per-attempt TCP connect behaviour (port-based constructor only).
  transport::TcpConnectOptions connect{1, 500, 50, 500};
  /// Non-empty switches the sink to acked mode: frames are tagged
  /// (sink_id, seq), retained until acknowledged, and retransmitted on
  /// reconnect. Replicas of one uploader must see the same sink_id.
  std::string sink_id;
  /// Acked mode: called (off the data plane, on the connection's reactor
  /// loop) with the cumulative acked seq each time it advances. Never runs
  /// after the sink's destructor returns. Must not call back into the sink.
  std::function<void(std::uint64_t)> on_ack;
};

class ResilientLogSink final : public LogSink {
 public:
  using Options = ResilientLogSinkOptions;

  /// A connection factory: returns a live channel or nullptr on failure.
  /// Runs on the sink's reactor strand and may block for one dial. Lets
  /// tests interpose FaultInjectingChannel and lets deployments dial
  /// whatever endpoint scheme they use.
  using Connector = std::function<std::shared_ptr<transport::AsyncChannel>()>;

  /// Connects (on the reactor) to the log server at 127.0.0.1:`port`.
  /// Never throws and never blocks: a logger that is down at startup simply
  /// means the spool fills until it comes up.
  explicit ResilientLogSink(std::uint16_t port, Options options = {});

  ResilientLogSink(Connector connector, Options options = {});
  ~ResilientLogSink() override;

  ResilientLogSink(const ResilientLogSink&) = delete;
  ResilientLogSink& operator=(const ResilientLogSink&) = delete;

  // --- LogSink (data plane; never blocks on the network) ---
  void RegisterKey(const crypto::ComponentId& id,
                   const crypto::PublicKey& key) override;
  void Append(const LogEntry& entry) override;

  /// Acked-mode variants returning the assigned seq (0 in legacy mode, or
  /// when the sink is already stopping). Append/RegisterKey delegate here.
  std::uint64_t RegisterKeyAcked(const crypto::ComponentId& id,
                                 const crypto::PublicKey& key) EXCLUDES(mu_);
  std::uint64_t AppendAcked(const LogEntry& entry) EXCLUDES(mu_);

  bool Connected() const EXCLUDES(mu_);
  SinkStats Stats() const EXCLUDES(mu_);

  /// Blocks until every spooled frame has been written to a live connection
  /// and the connection's send queue has handed it to the socket (or
  /// `timeout` elapses). Returns true if fully drained. Intended for
  /// orderly shutdown; the data plane itself never calls this.
  bool Drain(std::chrono::milliseconds timeout) EXCLUDES(mu_);

 private:
  /// One spooled upload. `seq` is 0 in legacy mode.
  struct SpooledFrame {
    std::uint64_t seq = 0;
    Bytes frame;
  };
  struct Gate;

  bool AckedMode() const { return !options_.sink_id.empty(); }
  void PushFrame(Bytes frame) EXCLUDES(mu_);
  void PushLocked(std::uint64_t seq, Bytes frame) REQUIRES(mu_);

  // The state machine. Dial and Pump run on the sink's strand (loop_), so
  // every send is issued from one loop in spool order; OnAckFrame and the
  // close edge's OnClosed run on the connection's loop. Each step runs
  // through the gate.
  /// Dials once. On success attaches the connection's handlers, re-sends
  /// the keys a reconnect needs and pumps; on failure arms the backoff.
  void Dial() EXCLUDES(mu_);
  /// Sends spooled frames until the spool (legacy) or its unsent suffix
  /// (acked) is empty. Never sends under mu_: on its own loop a send can
  /// run the close edge inline, and OnClosed takes mu_.
  void Pump() EXCLUDES(mu_);
  /// Acked mode: releases the frames a cumulative ack covers.
  void OnAckFrame(BytesView frame) EXCLUDES(mu_);
  /// Retires `channel` if it is still current and arms the backoff: after a
  /// failed send, or on the close edge in acked mode.
  void OnClosed(const transport::AsyncChannel* channel) EXCLUDES(mu_);
  /// Schedules the next Dial after the backoff delay for `failures_`
  /// consecutive failed attempts, and counts this one.
  void ScheduleDialLocked() REQUIRES(mu_);
  /// Posts one Pump unless one is already pending.
  void KickPumpLocked() REQUIRES(mu_);
  /// Sends the key-registration frames a fresh logger needs but the spool
  /// replay will not deliver: all of them in legacy mode, only the acked
  /// ones in acked mode (an unacked key frame is still spooled, and sending
  /// it early would advance the server's per-sink watermark past lower-seq
  /// unacked entries — the cumulative ack would then release those entries
  /// unapplied). False on send failure.
  bool ResendKeys(transport::AsyncChannel& channel) EXCLUDES(mu_);

  Connector connector_;
  const Options options_;
  transport::Reactor& reactor_;
  const std::size_t loop_;
  const std::shared_ptr<Gate> gate_;

  mutable Mutex mu_;
  CondVar drain_cv_;  // wakes Drain()
  std::deque<SpooledFrame> spool_ GUARDED_BY(mu_);
  // Replayed on every reconnect so a logger restarted with empty state can
  // still verify replayed entries. In acked mode only the already-acked
  // frames (seq <= acked_seq_) are replayed from here: unacked ones are
  // still in the spool and MUST go out in seq order with the other unacked
  // frames (see ResendKeys).
  std::vector<SpooledFrame> key_frames_ GUARDED_BY(mu_);
  std::shared_ptr<transport::AsyncChannel> channel_ GUARDED_BY(mu_);
  bool in_flight_ GUARDED_BY(mu_) = false;  // popped but not yet sent
  // A pump pass is posted or running: appends need not post another.
  bool pump_armed_ GUARDED_BY(mu_) = false;
  // Acked mode: spool index of the first not-yet-sent frame (everything
  // before it is sent but unacked; reset to 0 on reconnect to retransmit).
  std::size_t next_send_ GUARDED_BY(mu_) = 0;
  std::uint64_t last_seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t acked_seq_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::uint64_t connects_ GUARDED_BY(mu_) = 0;
  // Consecutive failed attempts: the backoff exponent. A failed dial or a
  // closed connection adds one; an ack that advances acked_seq_ (and, in
  // legacy mode, which has no acks, a successful dial) resets it.
  unsigned failures_ GUARDED_BY(mu_) = 0;
  SinkStats stats_ GUARDED_BY(mu_);
  Rng backoff_rng_ GUARDED_BY(mu_);
};

}  // namespace adlp::proto
