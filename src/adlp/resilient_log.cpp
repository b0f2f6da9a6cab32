#include "adlp/resilient_log.h"

#include <algorithm>

#include "adlp/remote_log.h"
#include "obs/instrument.h"
#include "wire/wire.h"

namespace adlp::proto {

ResilientLogSink::ResilientLogSink(std::uint16_t port, Options options)
    : ResilientLogSink(
          [port, connect = options.connect]() -> transport::ChannelPtr {
            return transport::TryTcpConnect(port, connect);
          },
          options) {}

ResilientLogSink::ResilientLogSink(Connector connector, Options options)
    : connector_(std::move(connector)),
      options_(options),
      backoff_rng_(options.backoff_seed) {
  flusher_ = std::thread([this] { FlusherLoop(); });
}

ResilientLogSink::~ResilientLogSink() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    // Unblocks a flusher stuck in send() on a full socket buffer.
    if (channel_) channel_->Close();
  }
  cv_.NotifyAll();
  drain_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  // Frames still spooled die with the sink; release them from the
  // process-wide depth gauge so it tracks live sinks only. The flusher is
  // joined, but the lock is still taken: spool_ is guarded by mu_ and the
  // analysis (rightly) has no notion of "all other threads are dead".
  MutexLock lock(mu_);
  if (!spool_.empty()) {
    obs::metric::SinkSpoolDepth().Sub(static_cast<std::int64_t>(spool_.size()));
  }
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
  cv_.NotifyOne();
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
  cv_.NotifyOne();
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
  while (!spool_.empty() || in_flight_) {
    if (drain_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      return spool_.empty() && !in_flight_;
    }
  }
  return true;
}

void ResilientLogSink::PushFrame(Bytes frame) {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    PushLocked(0, std::move(frame));
  }
  cv_.NotifyOne();
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
    // necessarily unacked — the ack reader pops acked frames — but guard on
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
}

void ResilientLogSink::AckReaderLoop(transport::ChannelPtr channel) {
  while (auto frame = channel->Receive()) {
    std::uint64_t seq = 0;
    try {
      seq = ParseLogAck(*frame);
    } catch (const wire::WireError&) {
      continue;  // not an ack; the logger sends nothing else, but be lenient
    }
    std::uint64_t cumulative = 0;
    {
      MutexLock lock(mu_);
      if (seq <= acked_seq_) continue;  // stale duplicate
      acked_seq_ = seq;
      stats_.acked_seq = seq;
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
  // The server hung up — e.g. the gap-hold guard closed an out-of-sync
  // replay. Frames already written into the dead socket will never be
  // acked: if this channel is still current, retire it, rewind the send
  // cursor, and wake the flusher so it reconnects and replays from the
  // first unacked frame. Without this a fully-sent spool parks forever
  // waiting on acks that cannot arrive.
  MutexLock lock(mu_);
  if (channel_ == channel) {
    channel_.reset();
    next_send_ = 0;
    cv_.NotifyAll();
  }
}

bool ResilientLogSink::ResendKeys(const transport::ChannelPtr& channel) {
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
    if (!channel->Send(frame)) return false;
  }
  return true;
}

void ResilientLogSink::FlusherLoop() {
  unsigned failures = 0;
  // Acked mode: the flusher owns the ack reader of the current channel —
  // started after every (re)connect, joined (after closing its channel)
  // before the channel is replaced and on every exit path. Joining happens
  // outside mu_: the reader takes mu_ while releasing acked frames.
  std::thread ack_reader;
  transport::ChannelPtr reader_channel;
  const auto stop_reader = [&ack_reader, &reader_channel] {
    if (reader_channel) reader_channel->Close();
    if (ack_reader.joinable()) ack_reader.join();
    reader_channel.reset();
  };
  while (true) {
    transport::ChannelPtr channel;
    {
      MutexLock lock(mu_);
      if (stop_) break;
      channel = channel_;
    }

    if (channel == nullptr || !channel->IsOpen()) {
      // The previous channel (if any) is dead: retire its reader first so
      // exactly one reader is ever alive.
      stop_reader();
      transport::ChannelPtr fresh = connector_();
      MutexLock lock(mu_);
      if (stop_) {
        if (fresh) fresh->Close();
        break;
      }
      if (fresh == nullptr) {
        ++stats_.connect_failures;
        obs::metric::SinkConnectFailTotal().Add(1);
        obs::TraceLog::Global().Record(obs::TraceKind::kConnectFail, "",
                                       failures);
        const std::int64_t delay_ms =
            options_.backoff.DelayMs(failures, backoff_rng_);
        if (failures < 63) ++failures;
        // Timed park, cut short by stop_: wait out the backoff interval
        // unless the destructor wakes us first.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(delay_ms);
        while (!stop_ &&
               cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
        }
        continue;
      }
      failures = 0;
      channel_ = fresh;
      ++connects_;
      // Everything sent-but-unacked on the dead channel goes again: the
      // server's seq watermark swallows whatever did arrive.
      next_send_ = 0;
      const bool is_reconnect = connects_ > 1;
      if (is_reconnect) {
        ++stats_.reconnects;
        obs::metric::SinkReconnectTotal().Add(1);
        obs::TraceLog::Global().Record(obs::TraceKind::kReconnect, "",
                                       connects_);
      }
      lock.Unlock();
      if (AckedMode()) {
        reader_channel = fresh;
        ack_reader = std::thread(
            [this, fresh] { AckReaderLoop(fresh); });
      }
      // Keys need re-registration only on REconnects: the first connection
      // gets them from the spool in their original order. ResendKeys skips
      // any key frame the spool replay still covers — replaying an unacked
      // key frame out of seq order would trick the server's watermark into
      // acking lower-seq unacked entries away (see ResendKeys).
      if (is_reconnect && !ResendKeys(fresh)) {
        lock.Lock();
        if (channel_ == fresh) channel_.reset();
        continue;
      }
      channel = fresh;
    }

    Bytes frame;
    std::uint64_t sent_seq = 0;
    {
      MutexLock lock(mu_);
      if (AckedMode()) {
        // Frames stay spooled until acked; the cursor walks the unsent
        // suffix. An ack can only shrink the pending suffix, so no wake is
        // needed beyond PushLocked's.
        while (!stop_ && next_send_ >= spool_.size()) cv_.Wait(lock);
        if (stop_) break;
        frame = spool_[next_send_].frame;  // copy: retained until acked
        sent_seq = spool_[next_send_].seq;
      } else {
        while (!stop_ && spool_.empty()) cv_.Wait(lock);
        if (stop_) break;
        frame = std::move(spool_.front().frame);
        spool_.pop_front();
        in_flight_ = true;
      }
    }

    const bool sent = channel->Send(frame);
    {
      MutexLock lock(mu_);
      in_flight_ = false;
      if (sent) {
        ++stats_.entries_sent;
        obs::metric::SinkSentTotal().Add(1);
        obs::TraceLog::Global().Record(obs::TraceKind::kFlush, "",
                                       spool_.size());
        if (AckedMode()) {
          // The ack reader may have already released this frame (and, on a
          // retransmit run, even later unsent ones) while we were sending;
          // advance only past the frame we actually sent.
          if (next_send_ < spool_.size() &&
              spool_[next_send_].seq == sent_seq) {
            ++next_send_;
          }
        } else {
          obs::metric::SinkSpoolDepth().Sub(1);
          if (spool_.empty()) drain_cv_.NotifyAll();
        }
      } else {
        if (AckedMode()) {
          // The frame is still spooled at the cursor; a reconnect replays
          // from the first unacked frame anyway.
          if (channel_ == channel) channel_.reset();
          lock.Unlock();
          channel->Close();  // make sure the ack reader unblocks
          lock.Lock();
        } else {
          // Order-preserving retry: the failed frame goes back to the
          // front and is the first thing replayed after reconnection.
          spool_.push_front(SpooledFrame{0, std::move(frame)});
          if (channel_ == channel) channel_.reset();
        }
      }
    }
  }
  stop_reader();
}

}  // namespace adlp::proto
