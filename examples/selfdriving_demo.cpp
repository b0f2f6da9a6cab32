// Self-driving demo: the full Fig. 11(b) application — camera + LIDAR,
// perception, planning, actuation — driving a simulated 1/10-scale car
// around a circular track with a stop sign, with every data transmission
// logged accountably under ADLP.
//
//   build/examples/selfdriving_demo [sim_seconds] [--realtime]
//                                   [--alg rsa|ed25519]
//                                   [--metrics-out FILE]
//
// Default runs in fast (non-realtime) simulation with RSA-1024 signatures
// (paper parity); --alg ed25519 runs the whole fleet — signing and the
// closing audit — on the Ed25519 suite instead. At the end the demo
// prints pipeline statistics, the car's trajectory summary, the log
// volume, and a clean audit report.
#include <cstdio>
#include <cstring>

#include <string>

#include "audit/auditor.h"
#include "audit/causality.h"
#include "crypto/sig.h"
#include "obs/export.h"
#include "sim/app.h"

using namespace adlp;

int main(int argc, char** argv) {
  double sim_seconds = 20.0;
  bool realtime = false;
  std::string metrics_out;
  crypto::SigAlgorithm alg = crypto::SigAlgorithm::kRsaPkcs1Sha256;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--realtime") == 0) {
      realtime = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--alg") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      if (std::strcmp(value, "rsa") == 0) {
        alg = crypto::SigAlgorithm::kRsaPkcs1Sha256;
      } else if (std::strcmp(value, "ed25519") == 0) {
        alg = crypto::SigAlgorithm::kEd25519;
      } else {
        std::fprintf(stderr, "unknown --alg '%s' (rsa|ed25519)\n", value);
        return 2;
      }
    } else {
      sim_seconds = std::atof(argv[i]);
    }
  }

  pubsub::Master master;
  proto::LogServer log_server;

  sim::AppOptions options;
  options.component.scheme = proto::LoggingScheme::kAdlp;
  options.component.sig_algorithm = alg;
  options.component.rsa_bits = 1024;
  options.realtime = realtime;
  options.with_stop_sign = true;

  std::printf("starting the self-driving application (%.0f s %s, %s)...\n",
              sim_seconds, realtime ? "realtime" : "fast-sim",
              alg == crypto::SigAlgorithm::kEd25519 ? "ed25519" : "rsa-1024");
  sim::SelfDrivingApp app(master, log_server, options);
  app.Run(sim_seconds);
  app.Shutdown();

  const auto stats = app.stats();
  std::printf("\n--- pipeline ---\n");
  std::printf("camera frames: %llu   lidar scans: %llu\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.scans));
  std::printf("lane: %llu  sign: %llu  obstacle: %llu  plan: %llu  "
              "steering: %llu  actuations: %llu\n",
              static_cast<unsigned long long>(stats.lane_msgs),
              static_cast<unsigned long long>(stats.sign_msgs),
              static_cast<unsigned long long>(stats.obstacle_msgs),
              static_cast<unsigned long long>(stats.plan_msgs),
              static_cast<unsigned long long>(stats.steering_msgs),
              static_cast<unsigned long long>(stats.actuations));
  std::printf("final pose: (%.2f, %.2f) heading %.2f rad, speed %.2f m/s\n",
              stats.final_state.x, stats.final_state.y,
              stats.final_state.heading, stats.final_state.speed);
  std::printf("stop sign engaged: %s\n", stats.stop_engaged ? "yes" : "no");

  std::printf("\n--- trusted logger ---\n");
  std::printf("entries: %zu  bytes: %.2f MB  Merkle root: %s\n",
              log_server.EntryCount(),
              static_cast<double>(log_server.TotalBytes()) / 1e6,
              log_server.VerifyRecords() ? "verifies" : "BROKEN");

  std::printf("\n--- audit ---\n");
  audit::Auditor auditor(log_server.Keys());
  const audit::AuditReport report =
      auditor.Audit(log_server.Entries(), master.Topology());
  std::printf("%s", report.Render().c_str());

  // Causality spot-check along image -> lane -> plan for a few frames.
  audit::LogDatabase db(log_server.Entries(), master.Topology());
  std::vector<audit::FlowDependency> deps;
  for (std::uint64_t seq = 2; seq <= std::min<std::uint64_t>(10, stats.frames);
       ++seq) {
    deps.push_back({audit::PairKey{"image", seq, "lane_detector"},
                    audit::PairKey{"lane", seq, "planner"}});
  }
  const auto violations = audit::CausalityChecker(db).Check(deps);
  std::printf("causality check (image->lane->plan, %zu chains): %zu "
              "violations\n",
              deps.size(), violations.size());

  if (!metrics_out.empty()) {
    if (obs::WriteMetricsFile(metrics_out)) {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
  }

  return report.unfaithful.empty() && violations.empty() ? 0 : 1;
}
