#include "transport/fault_inject.h"

#include <chrono>
#include <thread>

#include "obs/instrument.h"

namespace adlp::transport {

namespace {

struct FaultMetrics {
  obs::Counter& dropped = obs::metric::FaultInjectedTotal("drop");
  obs::Counter& duplicated = obs::metric::FaultInjectedTotal("duplicate");
  obs::Counter& corrupted = obs::metric::FaultInjectedTotal("corrupt");
  obs::Counter& disconnected = obs::metric::FaultInjectedTotal("disconnect");

  static FaultMetrics& Get() {
    static FaultMetrics m;
    return m;
  }
};

void TraceFault(const char* fault, std::uint64_t value) {
  obs::TraceLog::Global().Record(obs::TraceKind::kFaultInjected, fault, value);
}

}  // namespace

bool FaultInjectingChannel::Send(BytesView payload) {
  Bytes frame;
  std::int64_t delay_ns = 0;
  bool duplicate = false;
  {
    MutexLock lock(mu_);
    if (plan_.disconnect_after_frames != 0 &&
        stats_.forwarded >= plan_.disconnect_after_frames) {
      if (!stats_.disconnected) {
        stats_.disconnected = true;
        FaultMetrics::Get().disconnected.Add(1);
        TraceFault("disconnect", stats_.forwarded);
        inner_->Close();
      }
      return false;
    }
    if (plan_.drop_prob > 0 && rng_.Chance(plan_.drop_prob)) {
      ++stats_.dropped;
      FaultMetrics::Get().dropped.Add(1);
      TraceFault("drop", payload.size());
      return true;  // silent loss: the sender cannot tell
    }
    frame.assign(payload.begin(), payload.end());
    if (plan_.corrupt_prob > 0 && !frame.empty() &&
        rng_.Chance(plan_.corrupt_prob)) {
      frame[rng_.UniformBelow(frame.size())] ^= 0x01;
      ++stats_.corrupted;
      FaultMetrics::Get().corrupted.Add(1);
      TraceFault("corrupt", frame.size());
    }
    if (plan_.delay_ns_max > 0) {
      delay_ns = static_cast<std::int64_t>(
          rng_.UniformBelow(static_cast<std::uint64_t>(plan_.delay_ns_max) + 1));
    }
    duplicate = plan_.duplicate_prob > 0 && rng_.Chance(plan_.duplicate_prob);
  }

  if (delay_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns));
  }
  if (!inner_->Send(frame)) return false;
  {
    MutexLock lock(mu_);
    ++stats_.forwarded;
    if (duplicate) {
      ++stats_.duplicated;
      FaultMetrics::Get().duplicated.Add(1);
      TraceFault("duplicate", frame.size());
    }
  }
  if (duplicate) (void)inner_->Send(frame);
  return true;
}

void FaultInjectingChannel::DrainQueued() {
  // On the shared loop, so the inner channel attaches inline and hands over
  // what queued there first. Weak: the inner channel must not keep its
  // decorator alive.
  std::weak_ptr<FaultInjectingChannel> weak = weak_from_this();
  inner_->StartAsync(
      [weak](BytesView frame) {
        if (auto self = weak.lock()) self->Deliver(frame);
      },
      [weak] {
        if (auto self = weak.lock()) self->CloseEdge();
      });
}

std::shared_ptr<AsyncChannel> WrapWithFaults(
    std::shared_ptr<AsyncChannel> inner, FaultPlan plan, Rng rng) {
  return std::make_shared<FaultInjectingChannel>(std::move(inner), plan, rng);
}

}  // namespace adlp::transport
