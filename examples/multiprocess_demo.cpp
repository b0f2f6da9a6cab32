// True multi-process deployment — the paper's setting, where every ROS node
// is its own Linux process and the master/logger are services.
//
//   build/examples/multiprocess_demo [--messages N] [--metrics-out FILE]
//
// With --metrics-out, the orchestrator writes its metrics (audit timings)
// to FILE and each child process writes its own registry (publish/ack/log
// counters for its side of the link) to FILE.camera / FILE.detector —
// metrics are per-process state, so a multi-process run produces one dump
// per process.
//
// The orchestrator process hosts the name service (MasterService) and the
// trusted logger (LogServerService), then fork+execs itself twice:
//
//   [camera process]  --role camera   : ADLP publisher over real TCP
//   [detector process] --role detector: ADLP subscriber over real TCP
//
// Data flows point-to-point between the two child processes; the master
// only brokered the connection and the logger only received the entries.
// When both children exit, the orchestrator audits the collected log.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "adlp/component.h"
#include "adlp/remote_log.h"
#include "adlp/resilient_log.h"
#include "audit/auditor.h"
#include "obs/export.h"
#include "pubsub/remote_master.h"

using namespace adlp;

namespace {

constexpr std::size_t kPayloadSize = 100'000;

/// Children dial services that the orchestrator races to bring up: retry
/// rather than die on the first refused connection.
transport::TcpConnectOptions ChildDialOptions() {
  transport::TcpConnectOptions dial;
  dial.attempts = 20;
  dial.connect_timeout_ms = 500;
  dial.retry_delay_ms = 50;
  dial.max_retry_delay_ms = 500;
  return dial;
}

proto::ComponentOptions NodeOptions() {
  proto::ComponentOptions opts;
  opts.scheme = proto::LoggingScheme::kAdlp;
  opts.rsa_bits = 1024;
  opts.transport = pubsub::TransportKind::kTcp;  // mandatory across processes
  return opts;
}

/// Writes this process's registry if a path was requested; warns on failure
/// (metrics must never fail a demo run that otherwise succeeded).
void MaybeWriteMetrics(const std::string& path) {
  if (path.empty()) return;
  if (obs::WriteMetricsFile(path)) {
    std::printf("[%d] metrics written to %s\n", getpid(), path.c_str());
  } else {
    std::fprintf(stderr, "[%d] cannot write metrics to %s\n", getpid(),
                 path.c_str());
  }
}

int RunCamera(std::uint16_t master_port, std::uint16_t log_port, int messages,
              const std::string& metrics_out) {
  pubsub::RemoteMaster master(master_port, ChildDialOptions());
  proto::ResilientLogSink log_sink(log_port);
  Rng rng(0xCA11);
  proto::Component camera("camera", master, log_sink, rng, NodeOptions());

  auto& publisher = camera.Advertise("image");
  if (!publisher.WaitForSubscribers(1, std::chrono::milliseconds(10000))) {
    std::fprintf(stderr, "[camera %d] no subscriber appeared\n", getpid());
    return 2;
  }
  const Bytes payload = rng.RandomBytes(kPayloadSize);
  for (int i = 0; i < messages; ++i) {
    publisher.Publish(payload);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // 20 Hz
  }
  camera.Shutdown();
  log_sink.Drain(std::chrono::seconds(5));
  std::printf("[camera %d] published %d messages\n", getpid(), messages);
  MaybeWriteMetrics(metrics_out);
  return 0;
}

int RunDetector(std::uint16_t master_port, std::uint16_t log_port,
                int messages, const std::string& metrics_out) {
  pubsub::RemoteMaster master(master_port, ChildDialOptions());
  proto::ResilientLogSink log_sink(log_port);
  Rng rng(0xDE7E);
  proto::Component detector("detector", master, log_sink, rng, NodeOptions());

  std::atomic<int> got{0};
  detector.Subscribe("image", [&](const pubsub::Message& m) {
    if (m.payload.size() == kPayloadSize) got++;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got.load() < messages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  detector.Shutdown();
  log_sink.Drain(std::chrono::seconds(5));
  std::printf("[detector %d] received %d/%d messages\n", getpid(), got.load(),
              messages);
  MaybeWriteMetrics(metrics_out);
  return got.load() == messages ? 0 : 3;
}

pid_t SpawnChild(const char* self, const std::string& role,
                 std::uint16_t master_port, std::uint16_t log_port,
                 int messages, const std::string& metrics_out) {
  const std::string master_arg = std::to_string(master_port);
  const std::string log_arg = std::to_string(log_port);
  const std::string msg_arg = std::to_string(messages);
  const std::string metrics_arg =
      metrics_out.empty() ? "" : metrics_out + "." + role;
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: only exec between fork and here (the parent is threaded).
  if (metrics_arg.empty()) {
    execl(self, self, "--role", role.c_str(), "--master-port",
          master_arg.c_str(), "--log-port", log_arg.c_str(), "--messages",
          msg_arg.c_str(), static_cast<char*>(nullptr));
  } else {
    execl(self, self, "--role", role.c_str(), "--master-port",
          master_arg.c_str(), "--log-port", log_arg.c_str(), "--messages",
          msg_arg.c_str(), "--metrics-out", metrics_arg.c_str(),
          static_cast<char*>(nullptr));
  }
  _exit(127);
}

int RunOrchestrator(const char* self, int messages,
                    const std::string& metrics_out) {
  pubsub::MasterService master_service(0);
  proto::LogServer log_server;
  proto::LogServerService log_service(log_server, 0);
  std::printf("[orchestrator %d] master on :%u, logger on :%u\n", getpid(),
              master_service.Port(), log_service.Port());

  const pid_t detector =
      SpawnChild(self, "detector", master_service.Port(), log_service.Port(),
                 messages, metrics_out);
  const pid_t camera = SpawnChild(self, "camera", master_service.Port(),
                                  log_service.Port(), messages, metrics_out);

  int camera_status = -1, detector_status = -1;
  waitpid(camera, &camera_status, 0);
  waitpid(detector, &detector_status, 0);
  const int camera_rc =
      WIFEXITED(camera_status) ? WEXITSTATUS(camera_status) : -1;
  const int detector_rc =
      WIFEXITED(detector_status) ? WEXITSTATUS(detector_status) : -1;
  std::printf("[orchestrator] camera rc=%d detector rc=%d\n", camera_rc,
              detector_rc);
  if (camera_rc != 0 || detector_rc != 0) return 1;

  // Entries may still be in flight on the logger connections briefly.
  const std::size_t expected = static_cast<std::size_t>(2 * messages);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log_server.EntryCount() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::printf("[orchestrator] %zu log entries, Merkle root %s\n",
              log_server.EntryCount(),
              log_server.VerifyRecords() ? "verifies" : "BROKEN");

  const audit::AuditReport report =
      audit::Auditor(log_server.Keys())
          .Audit(log_server.Entries(), master_service.Topology());
  std::printf("%s", report.Render().c_str());

  const bool ok = log_server.EntryCount() == expected &&
                  log_server.VerifyRecords() && report.unfaithful.empty() &&
                  report.TotalValid() == expected;
  std::printf("==> multi-process ADLP run %s\n",
              ok ? "audited clean." : "FAILED the audit.");
  MaybeWriteMetrics(metrics_out);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string role = "orchestrator";
  std::uint16_t master_port = 0, log_port = 0;
  int messages = 20;
  std::string metrics_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--role") == 0) role = argv[i + 1];
    if (std::strcmp(argv[i], "--master-port") == 0) {
      master_port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--log-port") == 0) {
      log_port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--messages") == 0) {
      messages = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_out = argv[i + 1];
    }
  }

  if (role == "camera") {
    return RunCamera(master_port, log_port, messages, metrics_out);
  }
  if (role == "detector") {
    return RunDetector(master_port, log_port, messages, metrics_out);
  }
  return RunOrchestrator("/proc/self/exe", messages, metrics_out);
}
