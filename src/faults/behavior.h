// Unfaithful-component behaviours (Section III-B), implemented as LogPipe
// interceptors between a component's protocol layer and its logging thread.
//
// The placement encodes the paper's threat model precisely: the transport
// layer always exchanges valid data/signature pairs (Eq. (4) — the prototype
// computes them transparently below the application), so a component's
// freedom is confined to what it tells the logger. It can drop entries
// (hiding), rewrite them re-signing with its *own* key (falsification),
// claim another author (impersonation), or skew timestamps (timing
// disruption). It can never forge a counterpart's signature. Fabrication —
// inventing entries for transmissions that never happened — lives in
// fabricate.h because it injects entries rather than transforming them.
#pragma once

#include <functional>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "adlp/log_sink.h"
#include "adlp/protocols.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace adlp::faults {

/// Selects which entries a behaviour applies to. An unfaithful component
/// "may not necessarily act unfaithfully in relation with every component
/// that it communicates with" — the filter scopes misbehaviour by topic,
/// direction, peer, sequence range, or probability.
struct FaultFilter {
  std::optional<std::string> topic;
  std::optional<proto::Direction> direction;
  std::optional<crypto::ComponentId> peer;
  std::uint64_t seq_min = 0;
  std::uint64_t seq_max = std::numeric_limits<std::uint64_t>::max();
  double probability = 1.0;

  bool Matches(const proto::LogEntry& entry, Rng& rng) const;
};

/// A transformation applied to each matching entry. Returning nullopt drops
/// the entry (hiding).
class UnfaithfulBehavior {
 public:
  virtual ~UnfaithfulBehavior() = default;
  virtual std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) = 0;

  /// Thread-safe entry point: one behaviour instance is shared by every log
  /// pipe of a component (its publisher links and subscriptions, on
  /// several reactor loops, all feed it), so concrete behaviours keep plain
  /// state and this wrapper serializes them.
  std::optional<proto::LogEntry> Apply(proto::LogEntry entry) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return OnEntry(std::move(entry));
  }

 private:
  // Serializes OnEntry; concrete behaviours' own state is implicitly
  // guarded because Apply is their only entry point.
  Mutex mu_;
};

/// LogPipe wrapper installing a behaviour; plug into
/// ComponentOptions::pipe_wrapper.
class UnfaithfulLogPipe final : public proto::LogPipe {
 public:
  UnfaithfulLogPipe(proto::LogPipe& inner,
                    std::shared_ptr<UnfaithfulBehavior> behavior)
      : inner_(inner), behavior_(std::move(behavior)) {}

  void Enter(proto::LogEntry entry) override {
    if (auto out = behavior_->Apply(std::move(entry))) {
      inner_.Enter(std::move(*out));
    }
  }

  /// Injects an entry bypassing the behaviour (used by fabrication).
  void InjectDirect(proto::LogEntry entry) { inner_.Enter(std::move(entry)); }

 private:
  proto::LogPipe& inner_;
  std::shared_ptr<UnfaithfulBehavior> behavior_;
};

// --- Concrete behaviours -------------------------------------------------

/// Hiding: matching entries never reach the logger.
class HidingBehavior final : public UnfaithfulBehavior {
 public:
  HidingBehavior(FaultFilter filter, std::uint64_t rng_seed = 1);
  std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) override;

  std::uint64_t HiddenCount() const { return hidden_.load(); }

 private:
  FaultFilter filter_;
  Rng rng_;
  std::atomic<std::uint64_t> hidden_{0};
};

/// Falsification: the entry's reported data is replaced and the entry
/// re-signed with the component's own key, so self-authenticity still
/// holds — the smart adversary of Lemma 3. The counterpart's signature is
/// left untouched (it cannot be forged), which is exactly what betrays the
/// lie to the auditor.
class FalsificationBehavior final : public UnfaithfulBehavior {
 public:
  using Mutator = std::function<Bytes(const Bytes& original)>;

  /// `identity` is the unfaithful component's own identity (its private key
  /// re-signs the falsified claim). Default mutator flips the first byte
  /// and appends a marker.
  FalsificationBehavior(FaultFilter filter,
                        std::shared_ptr<const proto::NodeIdentity> identity,
                        Mutator mutate = nullptr,
                        std::uint64_t rng_seed = 2);
  std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) override;

  std::uint64_t FalsifiedCount() const { return falsified_.load(); }

 private:
  FaultFilter filter_;
  std::shared_ptr<const proto::NodeIdentity> identity_;
  Mutator mutate_;
  Rng rng_;
  std::atomic<std::uint64_t> falsified_{0};
};

/// Impersonation: matching entries claim another component as author. The
/// self-signature cannot verify under the victim's key, so the auditor
/// rejects the entry on sight (the "obvious detection" of Section IV-B).
class ImpersonationBehavior final : public UnfaithfulBehavior {
 public:
  ImpersonationBehavior(FaultFilter filter, crypto::ComponentId victim,
                        std::uint64_t rng_seed = 3);
  std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) override;

 private:
  FaultFilter filter_;
  crypto::ComponentId victim_;
  Rng rng_;
};

/// Timing disruption: shifts the local log timestamp of matching entries by
/// a fixed delta (positive or negative). Signed content is untouched — the
/// paper's point is that timestamps alone are not provable, only precedence
/// relations are (Lemma 4).
class TimingDisruptionBehavior final : public UnfaithfulBehavior {
 public:
  TimingDisruptionBehavior(FaultFilter filter, Timestamp delta_ns,
                           std::uint64_t rng_seed = 4);
  std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) override;

 private:
  FaultFilter filter_;
  Timestamp delta_ns_;
  Rng rng_;
};

/// Chains several behaviours (applied in order; a drop short-circuits).
class ComposedBehavior final : public UnfaithfulBehavior {
 public:
  explicit ComposedBehavior(
      std::vector<std::shared_ptr<UnfaithfulBehavior>> behaviors)
      : behaviors_(std::move(behaviors)) {}

  std::optional<proto::LogEntry> OnEntry(proto::LogEntry entry) override;

 private:
  std::vector<std::shared_ptr<UnfaithfulBehavior>> behaviors_;
};

/// Convenience: builds a ComponentOptions::pipe_wrapper installing
/// `behavior`.
std::function<std::unique_ptr<proto::LogPipe>(proto::LogPipe&,
                                              const proto::NodeIdentity&)>
MakePipeWrapper(std::shared_ptr<UnfaithfulBehavior> behavior);

}  // namespace adlp::faults
