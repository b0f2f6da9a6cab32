// adlp_perfbench — one run of one workload of the end-to-end benchmark.
//
//   adlp_perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// measures S/2 seconds untraced and then S/2 seconds traced, reports the
// layer metrics of the traced half, and the tracing overhead as the
// difference of the halves' CPU per entry over the part tracing
// instruments. The last line of stdout is the result: {"correct",
// "attempted", "failed", "metrics"}, with every metric measured by name;
// perfbench/run.py picks out and orders the ones BENCHMARK.json names.
// Details (the hardware stamp, sample counts, the time breakdown) go to
// DIR/results/, and spans of a traced run to DIR/traces/.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

using Workload = RunResult (*)(const RunConfig&, double seconds, bool traced);

Workload FindWorkload(const std::string& name) {
  if (name == "image_20hz") return RunImage20Hz;
  if (name == "steering_repl3") return RunSteeringRepl3;
  if (name == "forensic_audit") return RunForensicAudit;
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: adlp_perfbench --workload "
               "<image_20hz|steering_repl3|forensic_audit> --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

std::string MapJson(const auto& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    out += std::string(first ? "" : ", ") + JsonString(key) + ": ";
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, std::string>) {
      out += JsonString(value);
    } else {
      out += JsonNumber(static_cast<double>(value));
    }
    first = false;
  }
  return out + "}";
}

void WriteSpans(const RunConfig& config, const RunResult& result) {
  const std::filesystem::path dir =
      std::filesystem::path(config.workdir) / "traces";
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / (config.workload + ".spans.jsonl"));
  const std::vector<std::int64_t> self = SelfTimes(result.spans);
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const Span& s = result.spans[i];
    out << "{\"name\": " << JsonString(result.span_names.at(s.name))
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"self_ns\": " << self[i]
        << ", \"topic\": " << s.key.topic
        << ", \"publisher\": " << s.key.publisher
        << ", \"subscriber\": " << s.key.subscriber
        << ", \"seq\": " << s.key.seq << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  double seconds = 0.0;
  config.workdir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = seconds > 0;
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else {
      return Usage();
    }
  }
  const Workload run = FindWorkload(config.workload);
  if (run == nullptr || trace < 0 || !have_seed || !have_seconds) {
    return Usage();
  }
  const bool traced = trace == 1;

  RunResult result;
  try {
    std::filesystem::create_directories(config.workdir);
    if (!traced) {
      result = run(config, seconds, false);
    } else {
      const RunResult plain = run(config, seconds / 2, false);
      result = run(config, seconds / 2, true);
      result.metrics["bench.trace_overhead_pct"] =
          100.0 *
          (result.instrumented_cpu_us_per_entry -
           plain.instrumented_cpu_us_per_entry) /
          plain.instrumented_cpu_us_per_entry;
      result.correct = result.correct && plain.correct;
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      for (const auto& note : plain.notes) result.notes.push_back(note);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adlp_perfbench: %s\n", e.what());
    return 1;
  }
  result.correct = result.correct && result.failed == 0;

  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  if (traced) {
    std::printf("where the time went (%s, traced):\n", config.workload.c_str());
    for (const auto& line : result.breakdown) std::printf("%s\n", line.c_str());
    std::printf("tracing overhead: %+.1f%% CPU per entry where traced\n",
                result.metrics.at("bench.trace_overhead_pct"));
  }
  std::map<std::string, std::string> stamp = HardwareStamp();
  stamp["workload"] = config.workload;
  stamp["seed"] = std::to_string(config.seed);
  stamp["seconds"] = JsonNumber(seconds);
  stamp["trace"] = std::to_string(trace);
  const std::string stamp_json = MapJson(stamp);
  std::printf("stamp: %s\n", stamp_json.c_str());

  const std::filesystem::path results =
      std::filesystem::path(config.workdir) / "results";
  std::filesystem::create_directories(results);
  {
    std::ofstream out(results / (config.workload + "-seed" +
                                 std::to_string(config.seed) + "-trace" +
                                 std::to_string(trace) + ".json"));
    out << "{\"stamp\": " << stamp_json
        << ", \"metrics\": " << MapJson(result.metrics)
        << ", \"samples\": " << MapJson(result.samples) << "}\n";
  }
  if (traced) WriteSpans(config, result);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MapJson(result.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
