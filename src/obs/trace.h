// Bounded ring-buffer trace of protocol events.
//
// Metrics (metrics.h) answer "how many / how fast"; the trace answers "what
// happened, in what order" — the last N protocol events (publish, sign,
// ack-sent/ack-received, spool/flush, reconnect, audit-shard start/finish)
// with timestamps, cheap enough to leave on in production. The ring
// overwrites oldest-first, so after any incident the buffer holds the most
// recent history, which is what a post-mortem wants.
//
// Recording takes one short mutex-protected critical section (copy a small
// POD into a preallocated slot — no allocation, no I/O). Protocol events are
// orders of magnitude rarer than counter records, so the simple lock is
// well under the observability budget and keeps the structure exact under
// TSan, unlike a seqlock.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp::obs {

enum class TraceKind : std::uint8_t {
  kPublish = 0,       // publisher encoded + fanned out a publication
  kDeliver,           // subscriber delivered a message to the application
  kAckSent,           // subscriber signed and returned an ACK
  kAckReceived,       // publisher matched an ACK to an in-flight publication
  kLogEnter,          // a log entry entered the per-node logging queue
  kSpool,             // resilient sink queued a frame for delivery
  kSpoolDrop,         // spool overflow evicted the oldest frame
  kFlush,             // resilient sink wrote a frame to a live connection
  kReconnect,         // resilient sink re-established its connection
  kConnectFail,       // a connection attempt failed
  kFaultInjected,     // FaultInjectingChannel perturbed a frame
  kAuditShardStart,   // an audit started one topic partition (value:
                      // its entry count)
  kAuditShardFinish,  // ... and finished it
};

std::string_view TraceKindName(TraceKind kind);

/// One recorded event. POD with inline storage only: recording never
/// allocates. `detail` is a short free-form tag (topic, component id);
/// longer strings are truncated.
struct TraceEvent {
  static constexpr std::size_t kDetailCapacity = 30;

  TraceKind kind = TraceKind::kPublish;
  std::int64_t t_ns = 0;  // steady-clock timestamp
  std::uint64_t value = 0;  // event-specific (seq, spool depth, shard size…)
  std::array<char, kDetailCapacity + 1> detail{};  // NUL-terminated

  std::string_view Detail() const { return detail.data(); }
};

class TraceLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceLog(std::size_t capacity = kDefaultCapacity);

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Process-wide instance shared by all instrument sites.
  static TraceLog& Global();

  void Record(TraceKind kind, std::string_view detail = {},
              std::uint64_t value = 0) EXCLUDES(mu_);

  /// Events currently held, oldest first.
  std::vector<TraceEvent> Snapshot() const EXCLUDES(mu_);

  /// Total events ever recorded (dropped ones included).
  std::uint64_t RecordedCount() const EXCLUDES(mu_);

  std::size_t Capacity() const EXCLUDES(mu_) {
    // The ring never resizes after construction, but taking the lock keeps
    // the field uniformly guarded; Capacity() is not on any hot path.
    MutexLock lock(mu_);
    return ring_.size();
  }

  void Reset() EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  // Total recorded; next slot is next_ % capacity.
  std::uint64_t next_ GUARDED_BY(mu_) = 0;
};

}  // namespace adlp::obs
