// Deterministic fault injection at the transport layer.
//
// `FaultInjectingChannel` decorates any `AsyncChannel` (in-process or TCP)
// and perturbs the send path according to a `FaultPlan`, drawing every
// decision from a caller-supplied deterministic Rng (src/common/rng.h) so
// that chaos scenarios replay bit-for-bit from a seed. Faults modelled:
//
//   * drop       — frame silently swallowed (network loss): Send() reports
//                  success, mirroring what a one-way sender actually sees;
//   * delay      — extra latency before the frame is forwarded, slept on
//                  the sending thread (for a log sink, its reactor loop);
//   * duplicate  — frame forwarded twice (retransmission artefact);
//   * corrupt    — one random byte flipped before forwarding;
//   * disconnect — after a fixed number of forwarded frames the inner
//                  channel is hard-closed and every later Send() fails,
//                  modelling a crashed peer / cut connection.
//
// The receive path is passed through untouched: ADLP's fault model perturbs
// what a component manages to get onto the wire. StartAsync() on the
// decorator, the only way its frames are read, takes over the inner
// channel's frames and close edge and forwards both, on the inner channel's
// loop, so a disconnect fault reaches the decorator's close handler like a
// real cut would.
#pragma once

#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "transport/channel.h"

namespace adlp::transport {

struct FaultPlan {
  /// Probability a frame is silently lost.
  double drop_prob = 0;
  /// Probability a forwarded frame is sent twice.
  double duplicate_prob = 0;
  /// Probability one byte of a forwarded frame is flipped.
  double corrupt_prob = 0;
  /// Extra delay before forwarding, uniform in [0, delay_ns_max].
  std::int64_t delay_ns_max = 0;
  /// Hard-close the inner channel once this many frames were forwarded
  /// (0 = never). The triggering frame is NOT sent: the caller sees a clean
  /// Send() failure, exactly like a connection cut between two frames.
  std::uint64_t disconnect_after_frames = 0;
};

struct FaultStats {
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  bool disconnected = false;
};

class FaultInjectingChannel final
    : public AsyncChannel,
      public std::enable_shared_from_this<FaultInjectingChannel> {
 public:
  FaultInjectingChannel(std::shared_ptr<AsyncChannel> inner, FaultPlan plan,
                        Rng rng)
      : AsyncChannel(inner->OwningReactor(), inner->LoopIndex()),
        inner_(std::move(inner)),
        plan_(plan),
        rng_(rng) {}

  bool Send(BytesView payload) override EXCLUDES(mu_);
  void Close() override { inner_->Close(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  std::size_t PendingSendBytes() const override {
    return inner_->PendingSendBytes();
  }

  FaultStats Stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  std::shared_ptr<AsyncChannel> Self() override { return shared_from_this(); }
  void DrainQueued() override;

  const std::shared_ptr<AsyncChannel> inner_;
  FaultPlan plan_;
  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  FaultStats stats_ GUARDED_BY(mu_);
};

/// Convenience wrapper keeping call sites terse.
std::shared_ptr<AsyncChannel> WrapWithFaults(
    std::shared_ptr<AsyncChannel> inner, FaultPlan plan, Rng rng);

}  // namespace adlp::transport
