// Evidence replay: re-drive perception with the recorded camera frames.
//
//   build/examples/log_replay
//
// Phase 1: the self-driving app runs with the publisher entries storing
// image data as-is; the log is exported. Phase 2: an investigator replays
// the recorded "image" topic from the log file into a FRESH sign
// recognizer and checks, frame by frame, what a correct component should
// have detected — the post-incident question "was the stop sign visible in
// the evidence?" answered mechanically.
#include <atomic>
#include <cstdio>

#include "adlp/log_file.h"
#include "audit/replay.h"
#include "sim/app.h"
#include "sim/perception.h"

using namespace adlp;

int main() {
  const std::string log_path = "/tmp/replay_incident.adlplog";

  // --- Phase 1: the incident run -----------------------------------------
  {
    pubsub::Master master;
    proto::LogServer log_server;
    sim::AppOptions options;
    options.component.scheme = proto::LoggingScheme::kAdlp;
    options.component.rsa_bits = 1024;
    options.realtime = false;
    options.with_stop_sign = true;
    sim::SelfDrivingApp app(master, log_server, options);
    app.Run(15.0);  // long enough to reach the stop sign
    app.Shutdown();
    proto::WriteLogFile(log_path, log_server);
    std::printf("[vehicle] exported %zu entries (%.1f MB) to %s\n",
                log_server.EntryCount(),
                static_cast<double>(log_server.TotalBytes()) / 1e6,
                log_path.c_str());
  }

  // --- Phase 2: investigator replays the evidence ------------------------
  const proto::LoadedLog log = proto::ReadLogFile(log_path);
  std::printf("[investigator] loaded %zu entries, Merkle root %s\n",
              log.entries.size(),
              log.verified ? "verifies" : "BROKEN");
  if (!log.verified) return 1;

  pubsub::Master replay_master;
  proto::LogServer scratch;
  Rng rng(1);
  proto::ComponentOptions fresh_opts;
  fresh_opts.scheme = proto::LoggingScheme::kNone;
  proto::Component fresh_recognizer("fresh_sign_recognizer", replay_master,
                                    scratch, rng, fresh_opts);

  std::atomic<int> frames{0};
  std::atomic<int> stop_sign_frames{0};
  fresh_recognizer.Subscribe("image", [&](const pubsub::Message& m) {
    frames++;
    if (sim::RecognizeSign(m.payload).stop_sign) stop_sign_frames++;
  });

  audit::ReplayOptions replay_options;
  replay_options.topics = {"image"};
  const audit::ReplayStats stats =
      audit::ReplayLog(log.entries, replay_master, replay_options);

  // Give the last frames a moment to flow through.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.load() < static_cast<int>(stats.replayed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fresh_recognizer.Shutdown();

  std::printf("[investigator] replayed %llu image frames (skipped %llu "
              "hash-only entries)\n",
              static_cast<unsigned long long>(stats.replayed),
              static_cast<unsigned long long>(stats.skipped_no_data));
  std::printf("[investigator] fresh recognizer processed %d frames; stop "
              "sign visible in %d of them\n",
              frames.load(), stop_sign_frames.load());

  const bool ok = stats.replayed > 0 &&
                  frames.load() == static_cast<int>(stats.replayed) &&
                  stop_sign_frames.load() > 0;
  std::printf("==> %s\n",
              ok ? "the recorded evidence reproduces the stop sign — a "
                   "recognizer that missed it cannot blame its inputs."
                 : "UNEXPECTED: replay did not reproduce the detection.");
  return ok ? 0 : 1;
}
