// Bounded handoff queue between the trusted logger's ingestion path and an
// online consumer (the streaming auditor).
//
// The logger's Append is on the upload hot path: a consumer that lags must
// not be able to stall publishers. The queue is therefore explicitly
// bounded with a declared overflow policy:
//
//   kDropNewest  the push is dropped and counted — ingestion never blocks.
//                The online consumer sees a gap (its report may diverge
//                from an audit of the stored log until it re-syncs); pick
//                this for live monitoring where liveness beats
//                completeness.
//   kBlock       the push waits for space — ingestion slows to the
//                consumer's pace, but every event is delivered (lossless
//                tap; what the equivalence tests use). Publisher ACKs are
//                node-to-node and logging is asynchronous/spooled, so even
//                a blocked tap cannot stall the data plane's
//                acknowledgements — the backpressure regression test pins
//                this down.
//
// Push order is the logger's arrival order (pushes happen inside the
// logger's append critical section), which is exactly the entry order an
// offline audit reads back via Entries() — the property the
// online-vs-replay equivalence oracle leans on.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>

#include "adlp/epoch.h"
#include "adlp/log_entry.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "crypto/keystore.h"
#include "crypto/sig.h"

namespace adlp::proto {

/// One observed upload: a key registration, an appended entry, or an epoch
/// seal.
struct TapEvent {
  enum class Kind : std::uint8_t { kKey, kEntry, kEpochRoot };
  Kind kind = Kind::kEntry;

  // kKey
  crypto::ComponentId component;
  std::optional<crypto::PublicKey> key;

  // kEntry
  LogEntry entry;
  /// Arrival index in the logger's entry order (Entries()[index] == entry).
  std::uint64_t index = 0;

  // kEpochRoot: pushed inside the seal critical section, so the event
  // stream interleaves seals with entries exactly where they happened.
  std::optional<EpochRoot> epoch_root;
};

enum class TapOverflowPolicy : std::uint8_t { kDropNewest, kBlock };

struct TapStats {
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t popped = 0;
  std::uint64_t high_water = 0;
};

class LogTapQueue {
 public:
  LogTapQueue(std::size_t capacity, TapOverflowPolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  LogTapQueue(const LogTapQueue&) = delete;
  LogTapQueue& operator=(const LogTapQueue&) = delete;

  /// Producer side (the logger, inside its append critical section).
  /// Returns false when the event was dropped (kDropNewest overflow) or the
  /// queue is closed; kBlock waits for space instead of dropping, but never
  /// blocks on a closed queue.
  bool Push(TapEvent event) EXCLUDES(mu_);

  /// Consumer side: pops the oldest event, waiting up to `timeout` for one.
  /// nullopt on timeout or when the queue is closed and drained.
  std::optional<TapEvent> Pop(std::chrono::milliseconds timeout)
      EXCLUDES(mu_);

  /// Closes the queue: pushes are refused, blocked pushers and poppers wake,
  /// already-queued events remain poppable.
  void Close() EXCLUDES(mu_);

  std::size_t Depth() const EXCLUDES(mu_);
  TapStats Stats() const EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  const TapOverflowPolicy policy_;

  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<TapEvent> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  TapStats stats_ GUARDED_BY(mu_);
};

}  // namespace adlp::proto
