#include "adlp/logging_thread.h"

#include "obs/instrument.h"

namespace adlp::proto {

LoggingThread::LoggingThread(crypto::ComponentId id, LogSink& sink)
    : id_(std::move(id)), sink_(sink) {
  thread_ = std::thread([this] { Run(); });
}

LoggingThread::~LoggingThread() { Stop(); }

void LoggingThread::Enter(LogEntry entry) {
  const std::string topic = entry.topic;
  const std::uint64_t seq = entry.seq;
  if (queue_.Push(std::move(entry))) {
    entered_.fetch_add(1, std::memory_order_relaxed);
    obs::metric::LogEnteredTotal().Add(1);
    obs::metric::LogQueueDepth().Add(1);
    obs::TraceLog::Global().Record(obs::TraceKind::kLogEnter, topic, seq);
  }
}

void LoggingThread::Run() {
  ThreadCpuTracker cpu(&cpu_ns_);
  while (auto entry = queue_.Pop()) {
    obs::metric::LogQueueDepth().Sub(1);
    cpu.Tick();  // queue handling is the component's cost...
    sink_.Append(*entry);
    // ...but serialization/storage inside the sink is the trusted logger's
    // cost (a remote server in the paper's deployment), so it is not billed
    // to the component.
    cpu.Discard();
    {
      MutexLock lock(flush_mu_);
      ++processed_;
    }
    flush_cv_.NotifyAll();
    cpu.Tick();
  }
}

void LoggingThread::Flush() {
  const std::uint64_t target = entered_.load(std::memory_order_relaxed);
  MutexLock lock(flush_mu_);
  while (processed_ < target) flush_cv_.Wait(lock);
}

void LoggingThread::Stop() {
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

}  // namespace adlp::proto
