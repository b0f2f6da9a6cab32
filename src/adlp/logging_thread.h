// Per-node logging thread (one per node regardless of topic count, as in
// the prototype). Protocol code enqueues entries without blocking; the
// thread drains the queue and pushes entries to the trusted logger.
#pragma once

#include <atomic>
#include <thread>

#include "adlp/log_sink.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/thread_annotations.h"
#include "crypto/rsa.h"

namespace adlp::proto {

class LoggingThread final : public LogPipe {
 public:
  /// Starts the worker thread. Key registration is the caller's concern
  /// (only ADLP components register keys; the naive scheme has none).
  LoggingThread(crypto::ComponentId id, LogSink& sink);
  ~LoggingThread() override;

  LoggingThread(const LoggingThread&) = delete;
  LoggingThread& operator=(const LoggingThread&) = delete;

  /// Enqueues an entry (never blocks on the sink).
  void Enter(LogEntry entry) override;

  /// Blocks until every entry entered so far has reached the sink.
  void Flush() EXCLUDES(flush_mu_);

  /// Stops the worker after draining. Idempotent; called by the destructor.
  void Stop();

  std::uint64_t EnteredCount() const {
    return entered_.load(std::memory_order_relaxed);
  }

  /// CPU time consumed by the worker on the component's behalf (queue
  /// handling). Time spent inside the sink is the trusted logger's and is
  /// not counted.
  std::int64_t CpuTimeNs() const {
    return cpu_ns_.load(std::memory_order_relaxed);
  }

 private:
  void Run();

  crypto::ComponentId id_;
  LogSink& sink_;
  ConcurrentQueue<LogEntry> queue_;
  std::thread thread_;

  std::atomic<std::uint64_t> entered_{0};
  std::atomic<Timestamp> cpu_ns_{0};
  Mutex flush_mu_;
  CondVar flush_cv_;
  std::uint64_t processed_ GUARDED_BY(flush_mu_) = 0;
};

}  // namespace adlp::proto
