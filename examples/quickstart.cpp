// Quickstart: two components exchanging data under ADLP, then an offline
// audit of the trusted logger's records.
//
//   build/examples/quickstart
//
// Walks through the full lifecycle: key registration, transparent
// signed-hash messaging with acknowledgements, interdependent log entries,
// tamper-evident storage, and audit classification.
#include <atomic>
#include <cstdio>
#include <thread>

#include "adlp/component.h"
#include "adlp/log_server.h"
#include "audit/auditor.h"

using namespace adlp;

int main() {
  // The trusted logger: key registry + tamper-evident (Merkle-tree) store.
  proto::LogServer log_server;
  pubsub::Master master;
  Rng rng(2019);

  // Two components. Each generates an RSA-1024 key pair and registers the
  // public half with the logger; the protocol below is completely invisible
  // to the application code.
  proto::ComponentOptions options;
  options.scheme = proto::LoggingScheme::kAdlp;
  proto::Component camera("camera", master, log_server, rng, options);
  proto::Component detector("detector", master, log_server, rng, options);

  // Plain pub/sub from the application's point of view.
  std::atomic<int> received{0};
  detector.Subscribe("image", [&](const pubsub::Message& msg) {
    std::printf("[detector] got image seq=%llu (%zu bytes)\n",
                static_cast<unsigned long long>(msg.header.seq),
                msg.payload.size());
    received++;
  });

  auto& image_pub = camera.Advertise("image");
  for (int i = 0; i < 3; ++i) {
    image_pub.Publish(rng.RandomBytes(1024));
  }
  while (received.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  camera.Shutdown();   // drains pending ACKs, flushes the logging thread
  detector.Shutdown();

  // What the logger now holds.
  std::printf("\nlog server: %zu entries, %llu bytes, Merkle root %s\n",
              log_server.EntryCount(),
              static_cast<unsigned long long>(log_server.TotalBytes()),
              log_server.VerifyRecords() ? "verifies" : "BROKEN");
  for (const auto& entry : log_server.Entries()) {
    std::printf("  %-9s %-5s %-3s seq=%llu data=%zuB hash=%zuB "
                "self_sig=%zuB peer_sig=%zuB\n",
                entry.component.c_str(), entry.topic.c_str(),
                std::string(proto::DirectionName(entry.direction)).c_str(),
                static_cast<unsigned long long>(entry.seq), entry.data.size(),
                entry.data_hash.size(), entry.self_signature.size(),
                entry.peer_signature.size());
  }

  // Offline audit: classify every entry and resolve responsibilities.
  audit::Auditor auditor(log_server.Keys());
  const audit::AuditReport report =
      auditor.Audit(log_server.Entries(), master.Topology());
  std::printf("\n%s", report.Render().c_str());

  return report.unfaithful.empty() ? 0 : 1;
}
