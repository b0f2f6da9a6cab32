#include "fleet.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "sim/workload.h"
#include "transport/tcp.h"

namespace perfbench {

using namespace adlp;
using proto::LogEntry;

namespace {

/// Every logger seals an epoch after this many records.
constexpr std::uint64_t kSealEvery = 64;

template <typename T>
std::vector<std::atomic<T>> Zeroed(std::size_t n) {
  return std::vector<std::atomic<T>>(n);
}

void Stamp(std::vector<std::atomic<std::int64_t>>& v, std::size_t i,
           std::int64_t t) {
  v[i].store(t, std::memory_order_relaxed);
}

}  // namespace

/// Times every append into the logger and stamps the entry's slot.
class Fleet::TimedSink final : public proto::LogSink {
 public:
  explicit TimedSink(Fleet& fleet) : fleet_(fleet) {}

  void RegisterKey(const crypto::ComponentId& id,
                   const crypto::PublicKey& key) override {
    if (fleet_.repl_) {
      fleet_.repl_->RegisterKey(id, key);
    } else {
      fleet_.servers_.front()->RegisterKey(id, key);
    }
  }

  void Append(const LogEntry& entry) override {
    const std::int64_t t0 = NowNs();
    std::uint64_t seq = 0;
    if (fleet_.repl_) {
      seq = fleet_.repl_->AppendSeq(entry);
    } else {
      fleet_.servers_.front()->Append(entry);
    }
    const std::int64_t t1 = NowNs();
    fleet_.sink_busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    const std::int64_t slot = fleet_.SlotOf(entry);
    if (slot < 0) return;
    const auto i = static_cast<std::size_t>(slot);
    if (fleet_.traced_) Stamp(fleet_.append_start, i, t0);
    Stamp(fleet_.append_end, i, t1);
    if (seq != 0) fleet_.sink_seq_[i].store(seq, std::memory_order_relaxed);
    if (fleet_.traced_ && entry.direction == proto::Direction::kOut &&
        !fleet_.sample_taken_.exchange(true)) {
      fleet_.sample_entry_ = entry;
    }
  }

 private:
  Fleet& fleet_;
};

/// Stamps the moment an entry reaches its component's LogPipe (traced).
class Fleet::TimedPipe final : public proto::LogPipe {
 public:
  TimedPipe(Fleet& fleet, proto::LogPipe& inner)
      : fleet_(fleet), inner_(inner) {}
  void Enter(LogEntry entry) override {
    const std::int64_t slot = fleet_.SlotOf(entry);
    if (slot >= 0) {
      Stamp(fleet_.pipe_enter, static_cast<std::size_t>(slot), NowNs());
    }
    inner_.Enter(std::move(entry));
  }

 private:
  Fleet& fleet_;
  proto::LogPipe& inner_;
};

/// Owns a chain of pipes and forwards to its outermost one.
class Fleet::OwningPipe final : public proto::LogPipe {
 public:
  void Enter(LogEntry entry) override { chain_.back()->Enter(std::move(entry)); }
  void Push(std::unique_ptr<proto::LogPipe> pipe) {
    chain_.push_back(std::move(pipe));
  }

 private:
  std::vector<std::unique_ptr<proto::LogPipe>> chain_;
};

Fleet::Fleet(FleetSpec spec, std::uint64_t seed, std::size_t transmissions,
             bool traced)
    : spec_(std::move(spec)), traced_(traced), n_(transmissions) {
  const std::size_t topics = spec_.topics.size();
  const std::size_t subs = spec_.subscribers.size();
  if (topics == 0 || subs == 0 || n_ == 0 || spec_.rate_hz <= 0) {
    throw std::invalid_argument("fleet needs topics, subscribers and load");
  }
  period_ns_ = static_cast<std::int64_t>(1e9 / spec_.rate_hz);
  const std::size_t slots = n_ * EntriesPerTx();
  pub_start = Zeroed<std::int64_t>(n_);
  pub_end = Zeroed<std::int64_t>(n_);
  seal_start = Zeroed<std::int64_t>(n_);
  verdict = Zeroed<std::int64_t>(n_);
  deliver = Zeroed<std::int64_t>(n_ * subs);
  pipe_enter = Zeroed<std::int64_t>(slots);
  append_start = Zeroed<std::int64_t>(slots);
  append_end = Zeroed<std::int64_t>(slots);
  pop = Zeroed<std::int64_t>(slots);
  fed_end = Zeroed<std::int64_t>(slots);
  flagged_ = Zeroed<bool>(n_);
  sink_seq_ = Zeroed<std::uint64_t>(slots);

  // Inputs: the paper's payload for this workload, drawn from the seed.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  const std::size_t size = sim::PaperDataType(spec_.payload_type).size_bytes;
  const std::size_t pool =
      spec_.payload_pool == 0 ? n_ : std::min(spec_.payload_pool, n_);
  for (std::size_t i = 0; i < pool; ++i) {
    payloads_.push_back(sim::MakePayload(rng, size));
  }

  // Loggers.
  const std::size_t loggers = std::max<std::size_t>(1, spec_.replicas);
  for (std::size_t i = 0; i < loggers; ++i) {
    proto::LogServerOptions options;
    options.seal_every = kSealEvery;
    options.logger_id = "logger-" + std::to_string(i);
    servers_.push_back(std::make_unique<proto::LogServer>(options));
  }
  if (spec_.audit_tap) {
    // Lossless, and bounded so that an auditor falling behind slows the
    // logger instead of queueing gigabytes of Image entries.
    tap_ = std::make_unique<proto::LogTapQueue>(
        1024, proto::TapOverflowPolicy::kBlock);
    servers_.front()->AttachTap(tap_.get());
  }
  if (spec_.replicas > 0) {
    commit_at_ = Zeroed<std::int64_t>(slots + 64);
    std::vector<proto::ReplicatedLogSink::Connector> connectors;
    for (auto& server : servers_) {
      services_.push_back(std::make_unique<proto::LogServerService>(*server));
      const std::uint16_t port = services_.back()->Port();
      connectors.push_back([port] {
        return transport::TryTcpConnect(
            port, transport::TcpConnectOptions{1, 200, 10, 50});
      });
    }
    repl_ = std::make_unique<proto::ReplicatedLogSink>(std::move(connectors));
  }
  sink_ = std::make_unique<TimedSink>(*this);

  // Components: publishers first, then subscribers.
  auto make_component = [&](const std::string& name) {
    proto::ComponentOptions options;
    options.sig_algorithm = spec_.alg;
    options.rsa_bits = 1024;
    options.transport = spec_.transport;
    auto fault = spec_.faults.find(name);
    if (traced_ || fault != spec_.faults.end()) {
      PipeWrapper inject =
          fault == spec_.faults.end() ? PipeWrapper{} : fault->second;
      options.pipe_wrapper = [this, inject](proto::LogPipe& inner,
                                            const proto::NodeIdentity& id) {
        // protocol -> [fault injection] -> [timing] -> logging thread
        auto owner = std::make_unique<OwningPipe>();
        proto::LogPipe* base = &inner;
        if (traced_) {
          auto timed = std::make_unique<TimedPipe>(*this, inner);
          base = timed.get();
          owner->Push(std::move(timed));
        }
        if (inject) owner->Push(inject(*base, id));
        return owner;
      };
    }
    // Identities depend on the name only: key generation costs the same
    // for every seed, so set-up time does not vary with the inputs.
    Rng key_rng(NameSeed(name));
    components_.push_back(std::make_unique<proto::Component>(
        name, master_, *sink_, key_rng, options));
  };
  for (const auto& name : spec_.publishers) make_component(name);
  for (const auto& name : spec_.subscribers) make_component(name);

  for (std::size_t s = 0; s < subs; ++s) {
    proto::Component& sub = *components_[spec_.publishers.size() + s];
    for (std::size_t t = 0; t < topics; ++t) {
      sub.Subscribe(spec_.topics[t], [this, s, t, topics, subs](
                                         const pubsub::Message& m) {
        const std::uint64_t tx = (m.header.seq - 1) * topics + t;
        if (m.header.seq == 0 || tx >= n_) return;
        Stamp(deliver, tx * subs + s, NowNs());
        delivered_.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  for (std::size_t t = 0; t < topics; ++t) {
    topic_handles_.push_back(&components_[spec_.topic_publisher[t]]->Advertise(
        spec_.topics[t]));
  }
  for (auto* handle : topic_handles_) {
    if (!handle->WaitForSubscribers(subs, std::chrono::seconds(20))) {
      throw std::runtime_error("subscribers did not attach to " +
                               handle->Topic());
    }
  }
  topology_ = master_.Topology();

  if (spec_.audit_tap) {
    audit::StreamingOptions options;
    options.on_finding = [this](const audit::PairVerdict& v, Timestamp) {
      const auto t = TopicIndex(v.topic);
      if (!t || v.seq == 0) return;
      const std::uint64_t tx = (v.seq - 1) * spec_.topics.size() + *t;
      if (tx < n_) flagged_[tx].store(true, std::memory_order_relaxed);
    };
    auditor_ = std::make_unique<audit::StreamingAuditor>(
        servers_.front()->Keys(), topology_, options);
    consumer_ = std::thread([this] { ConsumeTap(); });
  }
  if (repl_) commit_watcher_ = std::thread([this] { WatchCommits(); });
}

Fleet::~Fleet() { Shutdown(NowNs() + 20'000'000'000); }

std::optional<std::size_t> Fleet::TopicIndex(const std::string& topic) const {
  for (std::size_t t = 0; t < spec_.topics.size(); ++t) {
    if (spec_.topics[t] == topic) return t;
  }
  return std::nullopt;
}

std::int64_t Fleet::SlotOf(const LogEntry& entry) const {
  const auto t = TopicIndex(entry.topic);
  if (!t || entry.seq == 0) return -1;
  const std::uint64_t tx = (entry.seq - 1) * spec_.topics.size() + *t;
  if (tx >= n_) return -1;
  const bool out = entry.direction == proto::Direction::kOut;
  if (out && entry.component != spec_.publishers[spec_.topic_publisher[*t]]) {
    return -1;
  }
  const crypto::ComponentId& subscriber = out ? entry.peer : entry.component;
  for (std::size_t s = 0; s < spec_.subscribers.size(); ++s) {
    if (spec_.subscribers[s] == subscriber) {
      const std::size_t k = out ? s : Subscribers() + s;
      return static_cast<std::int64_t>(tx * EntriesPerTx() + k);
    }
  }
  return -1;
}

Bytes Fleet::PayloadFor(std::size_t tx) const {
  return payloads_[tx % payloads_.size()];
}

void Fleet::Run(std::int64_t start_ns) {
  start_ns_ = start_ns;
  publisher_cpu_start_.clear();
  for (std::size_t p = 0; p < spec_.publishers.size(); ++p) {
    publisher_cpu_start_.push_back(components_[p]->CpuTimeNs());
  }
  const OpenLoopSchedule schedule(start_ns, period_ns_);
  // The next payload is copied before its due time, so the copy is not
  // charged as generator lateness.
  Bytes next = PayloadFor(0);
  for (std::size_t i = 0; i < n_; ++i) {
    SleepUntilNs(schedule.Due(i));
    Stamp(pub_start, i, NowNs());
    topic_handles_[i % spec_.topics.size()]->Publish(std::move(next));
    Stamp(pub_end, i, NowNs());
    if (i + 1 < n_) next = PayloadFor(i + 1);
  }
}

bool Fleet::Drain(std::int64_t deadline_ns) {
  const std::uint64_t deliveries = n_ * Subscribers();
  for (;;) {
    bool done = delivered_.load() >= deliveries;
    if (auditor_) done = done && verdicts_.load() >= n_;
    if (repl_) done = done && repl_->CommittedSeq() >= repl_->LastSeq();
    if (done) return true;
    if (NowNs() >= deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Fleet::Shutdown(std::int64_t deadline_ns) {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& component : components_) component->Shutdown();
  if (repl_) {
    const auto left = std::max<std::int64_t>(0, deadline_ns - NowNs());
    repl_->DrainCommitted(std::chrono::milliseconds(left / 1'000'000));
    // Quorum commit leaves the slowest replica catching up; the tap sits on
    // replica 0, so let every replica ingest everything it was sent.
    const std::uint64_t expected = repl_->LastSeq();
    for (std::size_t i = 0; i < repl_->ReplicaCount(); ++i) {
      while (repl_->ReplicaStats(i).acked_seq < expected &&
             NowNs() < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  stopping_.store(true);
  if (commit_watcher_.joinable()) commit_watcher_.join();
  if (tap_) {
    tap_->Close();
    if (consumer_.joinable()) consumer_.join();
    servers_.front()->AttachTap(nullptr);
  }
}

void Fleet::ConsumeTap() {
  const std::size_t per_tx = EntriesPerTx();
  std::vector<std::uint8_t> fed(n_, 0);
  std::vector<std::size_t> pending;
  std::size_t half_fed = 0;
  std::int64_t last_seal = 0;
  // A seal is taken only when no transmission is half-fed, so it never
  // judges a pair whose other entry is still in flight; and at most every
  // 10 ms, so a fast stream is sealed at a fixed cadence.
  constexpr std::int64_t kMinSealGapNs = 10'000'000;
  auto seal = [&](bool force) {
    if (pending.empty() || (half_fed != 0 && !force)) return;
    const std::int64_t t0 = NowNs();
    if (!force && t0 - last_seal < kMinSealGapNs) return;
    auditor_->SealEpoch();
    const std::int64_t t1 = NowNs();
    audit_busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    seal_ns_.push_back(t1 - t0);
    for (std::size_t tx : pending) {
      Stamp(seal_start, tx, t0);
      Stamp(verdict, tx, t1);
    }
    verdicts_.fetch_add(pending.size());
    pending.clear();
    last_seal = t1;
  };
  for (;;) {
    auto event = tap_->Pop(std::chrono::milliseconds(2));
    if (!event) {
      if (stopping_.load() && tap_->Depth() == 0) break;
      seal(false);
      continue;
    }
    if (event->kind != proto::TapEvent::Kind::kEntry) continue;
    const std::int64_t t0 = NowNs();
    auditor_->OnEntry(event->entry);
    const std::int64_t t1 = NowNs();
    audit_busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    entries_audited_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t slot = SlotOf(event->entry);
    if (slot < 0) {
      unexpected_entries_.fetch_add(1);
      continue;
    }
    const auto i = static_cast<std::size_t>(slot);
    Stamp(pop, i, t0);
    if (traced_) Stamp(fed_end, i, t1);
    const std::size_t tx = i / per_tx;
    if (++fed[tx] == 1) ++half_fed;
    if (fed[tx] == per_tx) {
      --half_fed;
      pending.push_back(tx);
    }
    seal(false);
  }
  seal(true);
}

void Fleet::WatchCommits() {
  std::uint64_t done = 0;
  while (!stopping_.load()) {
    repl_->WaitCommitted(done + 1, std::chrono::milliseconds(2));
    const std::uint64_t committed = repl_->CommittedSeq();
    const std::int64_t now = NowNs();
    for (std::uint64_t s = done + 1; s <= committed && s < commit_at_.size();
         ++s) {
      Stamp(commit_at_, s, now);
    }
    done = std::max(done, committed);
  }
}

std::int64_t Fleet::CommitNs(std::size_t slot) const {
  const std::uint64_t seq = sink_seq_[slot].load(std::memory_order_relaxed);
  if (seq == 0 || seq >= commit_at_.size()) return 0;
  return Get(commit_at_, seq);
}

std::vector<bool> Fleet::FlaggedTx() const {
  std::vector<bool> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = flagged_[i].load();
  return out;
}

std::int64_t Fleet::PublisherCpuNs() const {
  std::int64_t total = 0;
  for (std::size_t p = 0; p < publisher_cpu_start_.size(); ++p) {
    total += components_[p]->CpuTimeNs() - publisher_cpu_start_[p];
  }
  return total;
}

proto::LogSink& Fleet::Sink() { return *sink_; }

proto::Component& Fleet::ComponentNamed(const std::string& name) {
  for (auto& component : components_) {
    if (component->Id() == name) return *component;
  }
  throw std::out_of_range("no component " + name);
}

std::optional<LogEntry> Fleet::SamplePublisherEntry() const {
  return sample_entry_;
}

}  // namespace perfbench
