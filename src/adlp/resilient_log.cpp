#include "adlp/resilient_log.h"

#include <algorithm>

#include "adlp/remote_log.h"
#include "obs/instrument.h"
#include "wire/wire.h"

namespace adlp::proto {

/// What the sink's reactor callbacks hold instead of the sink. A callback
/// can fire after the sink is gone (a timer already due, handlers a late
/// StartAsync attached), so each one runs through Run(); the destructor's
/// Close() turns later ones away and waits out any still inside, which is
/// why on_ack never runs after ~ResilientLogSink returns.
struct ResilientLogSink::Gate {
  explicit Gate(ResilientLogSink* s) : sink(s) {}

  template <typename Step>
  void Run(Step&& step) EXCLUDES(mu) {
    ResilientLogSink* target = nullptr;
    {
      MutexLock lock(mu);
      if (sink == nullptr) return;
      target = sink;
      ++inside;
    }
    step(*target);
    MutexLock lock(mu);
    if (--inside == 0) idle.NotifyAll();
  }

  void Close() EXCLUDES(mu) {
    MutexLock lock(mu);
    sink = nullptr;
    while (inside > 0) idle.Wait(lock);
  }

  Mutex mu;
  CondVar idle;
  ResilientLogSink* sink GUARDED_BY(mu);
  int inside GUARDED_BY(mu) = 0;
};

ResilientLogSink::ResilientLogSink(std::uint16_t port, Options options)
    : ResilientLogSink(
          [port, connect = options.connect] {
            return transport::TryTcpConnect(port, connect);
          },
          options) {}

ResilientLogSink::ResilientLogSink(Connector connector, Options options)
    : connector_(std::move(connector)),
      options_(options),
      reactor_(transport::Reactor::Global()),
      loop_(reactor_.AssignLoop()),
      gate_(std::make_shared<Gate>(this)),
      backoff_rng_(options.backoff_seed) {
  reactor_.Post(loop_, [gate = gate_] {
    gate->Run([](ResilientLogSink& sink) { sink.Dial(); });
  });
}

ResilientLogSink::~ResilientLogSink() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  drain_cv_.NotifyAll();
  // From here on no callback runs: the connection and the state are ours.
  gate_->Close();
  std::shared_ptr<transport::AsyncChannel> channel;
  {
    MutexLock lock(mu_);
    channel = std::move(channel_);
    // Frames still spooled die with the sink; release them from the
    // process-wide depth gauge so it tracks live sinks only.
    if (!spool_.empty()) {
      obs::metric::SinkSpoolDepth().Sub(
          static_cast<std::int64_t>(spool_.size()));
    }
  }
  if (channel) channel->Close();
}

void ResilientLogSink::RegisterKey(const crypto::ComponentId& id,
                                   const crypto::PublicKey& key) {
  (void)RegisterKeyAcked(id, key);
}

std::uint64_t ResilientLogSink::RegisterKeyAcked(const crypto::ComponentId& id,
                                                 const crypto::PublicKey& key) {
  if (!AckedMode()) {
    Bytes frame = SerializeLogUpload(id, key);
    {
      MutexLock lock(mu_);
      // Kept forever: every (re)connect replays all registrations so a
      // logger restarted with empty state can still verify the replayed
      // entries. LogServer::RegisterKey is idempotent, so duplicates are
      // harmless.
      key_frames_.push_back(SpooledFrame{0, frame});
    }
    PushFrame(std::move(frame));
    return 0;
  }
  std::uint64_t seq = 0;
  {
    MutexLock lock(mu_);
    if (stop_) return 0;
    // The seq is part of the frame bytes, so assignment and serialization
    // stay under one lock hold — spool order is seq order by construction.
    seq = ++last_seq_;
    Bytes frame = SerializeLogUpload(id, key, options_.sink_id, seq);
    key_frames_.push_back(SpooledFrame{seq, frame});
    PushLocked(seq, std::move(frame));
  }
  return seq;
}

void ResilientLogSink::Append(const LogEntry& entry) {
  (void)AppendAcked(entry);
}

std::uint64_t ResilientLogSink::AppendAcked(const LogEntry& entry) {
  if (!AckedMode()) {
    PushFrame(SerializeLogUpload(entry));
    return 0;
  }
  std::uint64_t seq = 0;
  {
    MutexLock lock(mu_);
    if (stop_) return 0;
    seq = ++last_seq_;
    PushLocked(seq, SerializeLogUpload(entry, options_.sink_id, seq));
  }
  return seq;
}

bool ResilientLogSink::Connected() const {
  MutexLock lock(mu_);
  return channel_ != nullptr && channel_->IsOpen();
}

SinkStats ResilientLogSink::Stats() const {
  MutexLock lock(mu_);
  SinkStats stats = stats_;
  stats.entries_spooled = spool_.size();
  stats.acked_seq = acked_seq_;
  stats.last_seq = last_seq_;
  return stats;
}

bool ResilientLogSink::Drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  // Send never blocks, so a frame counted as sent may still wait in the
  // connection's send queue, which the destructor's Close() would discard.
  // Nothing signals that queue draining, so poll it; the query takes only
  // the channel's leaf write lock, never a callback.
  while (!spool_.empty() || in_flight_ ||
         (channel_ != nullptr && channel_->PendingSendBytes() > 0)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    drain_cv_.WaitUntil(lock,
                        std::min(deadline, now + std::chrono::milliseconds(1)));
  }
  return true;
}

void ResilientLogSink::PushFrame(Bytes frame) {
  MutexLock lock(mu_);
  if (stop_) return;
  PushLocked(0, std::move(frame));
}

void ResilientLogSink::PushLocked(std::uint64_t seq, Bytes frame) {
  if (spool_.size() >= options_.spool_capacity) {
    // Oldest-drop: bounded memory during a long partition. The auditor
    // sees the evicted entries as hidden, which is the honest verdict for
    // entries that truly never reached the logger. In acked mode the
    // evicted frame may have been sent already; the send cursor tracks the
    // shifted indices either way.
    // Surface evictions the server never acknowledged instead of folding
    // them into the generic drop count: these frames are gone from every
    // spool, so the server's watermark will show a GAP at replay time and
    // only anti-entropy repair can close it. (A spooled frame with a seq is
    // necessarily unacked — acks pop acked frames — but guard on
    // acked_seq_ anyway so a reordered release can never undercount.)
    if (spool_.front().seq != 0 && spool_.front().seq > acked_seq_) {
      ++stats_.entries_evicted_unacked;
      obs::metric::SinkEvictedUnackedTotal().Add(1);
    }
    spool_.pop_front();
    if (next_send_ > 0) --next_send_;
    ++stats_.entries_dropped;
    obs::metric::SinkDroppedTotal().Add(1);
    obs::metric::SinkSpoolDepth().Sub(1);
    obs::TraceLog::Global().Record(obs::TraceKind::kSpoolDrop, "",
                                   spool_.size());
  }
  spool_.push_back(SpooledFrame{seq, std::move(frame)});
  stats_.spool_high_water =
      std::max<std::uint64_t>(stats_.spool_high_water, spool_.size());
  stats_.last_seq = last_seq_;
  obs::metric::SinkSpooledTotal().Add(1);
  obs::metric::SinkSpoolDepth().Add(1);
  obs::metric::SinkSpoolHighWater().SetMax(
      static_cast<std::int64_t>(spool_.size()));
  obs::TraceLog::Global().Record(obs::TraceKind::kSpool, "", spool_.size());
  KickPumpLocked();
}

void ResilientLogSink::KickPumpLocked() {
  // Nothing to pump into until a dial succeeds; the dial pumps itself.
  if (channel_ == nullptr || pump_armed_) return;
  pump_armed_ = true;
  reactor_.Post(loop_, [gate = gate_] {
    gate->Run([](ResilientLogSink& sink) { sink.Pump(); });
  });
}

void ResilientLogSink::ScheduleDialLocked() {
  const std::int64_t delay_ms =
      options_.backoff.DelayMs(failures_, backoff_rng_);
  if (failures_ < 63) ++failures_;
  reactor_.RunAfter(loop_, delay_ms, [gate = gate_] {
    gate->Run([](ResilientLogSink& sink) { sink.Dial(); });
  });
}

void ResilientLogSink::Dial() {
  std::shared_ptr<transport::AsyncChannel> fresh = connector_();
  bool is_reconnect = false;
  {
    MutexLock lock(mu_);
    if (fresh == nullptr) {
      ++stats_.connect_failures;
      obs::metric::SinkConnectFailTotal().Add(1);
      obs::TraceLog::Global().Record(obs::TraceKind::kConnectFail, "",
                                     failures_);
      ScheduleDialLocked();
      return;
    }
    channel_ = fresh;
    ++connects_;
    // Everything sent-but-unacked on the dead channel goes again: the
    // server's seq watermark swallows whatever did arrive.
    next_send_ = 0;
    // Legacy mode has no acks to prove a connection useful.
    if (!AckedMode()) failures_ = 0;
    is_reconnect = connects_ > 1;
    if (is_reconnect) {
      ++stats_.reconnects;
      obs::metric::SinkReconnectTotal().Add(1);
      obs::TraceLog::Global().Record(obs::TraceKind::kReconnect, "",
                                     connects_);
    }
  }
  // Unlocked: on the connection's own loop StartAsync runs inline, and a
  // connection that is already closed runs OnClosed, which takes mu_.
  // Acked mode reads acks and learns of a dead connection from its close
  // edge: its frames all went out, and it waits on acks that can no longer
  // come. Legacy mode reads nothing and, as a one-way pusher does, learns of
  // a dead connection from a failed send; its null handlers only discard
  // whatever the logger might send.
  if (AckedMode()) {
    fresh->StartAsync(
        [gate = gate_](BytesView frame) {
          gate->Run(
              [frame](ResilientLogSink& sink) { sink.OnAckFrame(frame); });
        },
        [gate = gate_, raw = fresh.get()] {
          gate->Run([raw](ResilientLogSink& sink) { sink.OnClosed(raw); });
        });
  } else {
    fresh->StartAsync(nullptr, nullptr);
  }
  // Keys need re-registration only on REconnects: the first connection
  // gets them from the spool in their original order.
  if (is_reconnect && !ResendKeys(*fresh)) {
    OnClosed(fresh.get());
    return;
  }
  Pump();
}

void ResilientLogSink::Pump() {
  while (true) {
    std::shared_ptr<transport::AsyncChannel> channel;
    Bytes frame;
    std::uint64_t seq = 0;
    {
      MutexLock lock(mu_);
      // Acked mode keeps frames spooled until acked; the cursor walks the
      // unsent suffix.
      const bool idle =
          channel_ == nullptr ||
          (AckedMode() ? next_send_ >= spool_.size() : spool_.empty());
      if (idle) {
        pump_armed_ = false;  // the next append posts a fresh pass
        return;
      }
      channel = channel_;
      if (AckedMode()) {
        frame = spool_[next_send_].frame;  // copy: retained until acked
        seq = spool_[next_send_].seq;
      } else {
        frame = std::move(spool_.front().frame);
        spool_.pop_front();
        in_flight_ = true;
      }
    }
    const bool sent = channel->Send(frame);
    if (!sent) {
      {
        MutexLock lock(mu_);
        in_flight_ = false;
        pump_armed_ = false;
        // Acked mode still has the frame spooled at the cursor; legacy
        // mode puts it back at the front (order preserved). Either way
        // the replay on the next connection starts with it.
        if (!AckedMode()) spool_.push_front(SpooledFrame{0, std::move(frame)});
      }
      OnClosed(channel.get());
      return;
    }
    MutexLock lock(mu_);
    in_flight_ = false;
    ++stats_.entries_sent;
    obs::metric::SinkSentTotal().Add(1);
    obs::TraceLog::Global().Record(obs::TraceKind::kFlush, "", spool_.size());
    if (AckedMode()) {
      // An ack may have already released this frame (and, on a retransmit
      // run, even later unsent ones) while we were sending; advance only
      // past the frame we actually sent.
      if (next_send_ < spool_.size() && spool_[next_send_].seq == seq) {
        ++next_send_;
      }
    } else {
      obs::metric::SinkSpoolDepth().Sub(1);
      if (spool_.empty()) drain_cv_.NotifyAll();
    }
  }
}

void ResilientLogSink::OnAckFrame(BytesView frame) {
  std::uint64_t seq = 0;
  try {
    seq = ParseLogAck(frame);
  } catch (const wire::WireError&) {
    return;  // not an ack; the logger sends nothing else, but be lenient
  }
  std::uint64_t cumulative = 0;
  {
    MutexLock lock(mu_);
    if (seq <= acked_seq_) return;  // stale duplicate
    acked_seq_ = seq;
    stats_.acked_seq = seq;
    // The server applied a frame of ours: this connection is good, so the
    // next close starts the backoff afresh.
    failures_ = 0;
    std::size_t popped = 0;
    while (!spool_.empty() && spool_.front().seq != 0 &&
           spool_.front().seq <= seq) {
      spool_.pop_front();
      ++popped;
    }
    next_send_ = next_send_ > popped ? next_send_ - popped : 0;
    if (popped > 0) {
      stats_.entries_acked += popped;
      obs::metric::SinkAckedTotal().Add(popped);
      obs::metric::SinkSpoolDepth().Sub(static_cast<std::int64_t>(popped));
    }
    cumulative = acked_seq_;
    if (spool_.empty()) drain_cv_.NotifyAll();
  }
  // Outside mu_: the callback may take the replicated sink's own lock.
  if (options_.on_ack) options_.on_ack(cumulative);
}

void ResilientLogSink::OnClosed(const transport::AsyncChannel* channel) {
  // A send failed, or (acked mode) the server hung up: a restart, or the
  // gap-hold guard closing an out-of-sync replay. Frames written into the
  // dead connection will never be acked: retire it and redial after the
  // backoff; the dial rewinds the send cursor and replays from the first
  // unacked frame. A close that no ack preceded counts as a failed attempt.
  std::shared_ptr<transport::AsyncChannel> dead;
  MutexLock lock(mu_);
  if (channel_.get() != channel) return;  // already retired
  dead = std::move(channel_);
  ScheduleDialLocked();
}

bool ResilientLogSink::ResendKeys(transport::AsyncChannel& channel) {
  std::vector<Bytes> keys;
  {
    MutexLock lock(mu_);
    for (const SpooledFrame& kf : key_frames_) {
      // Acked mode: only key frames the server already acknowledged have
      // left the spool and need this replay. An unacked key frame is still
      // spooled and must go out in seq order with the other unacked frames;
      // sending it here first would advance the server's per-sink watermark
      // past lower-seq unacked entries, whose cumulative ack would then
      // release them from the spool without ever being applied.
      if (kf.seq == 0 || kf.seq <= acked_seq_) keys.push_back(kf.frame);
    }
  }
  for (const Bytes& frame : keys) {
    if (!channel.Send(frame)) return false;
  }
  return true;
}

}  // namespace adlp::proto
