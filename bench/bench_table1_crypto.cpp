// Table I — hashing and signing time for the paper's representative data
// types (Steering 20 B, Scan 8,705 B, Image 921,641 B), RSA-1024 + SHA-256.
//
//   bench_table1_crypto [--out FILE] [google-benchmark flags]
//
// Runs the measurements through google-benchmark for per-op timing, then
// prints a Table-I-shaped summary (avg, stdev over a fixed sample count)
// with the paper's values alongside. Absolute numbers are smaller than the
// paper's: the prototype used PyCrypto from Python; the paper itself notes
// (Sec. VI-E) that a C++ implementation would greatly reduce crypto cost.
// The *shape* to check: signing dominates for small data; hashing grows
// with size and catches up around the Image size. The first half is the
// gate, because it holds on any hardware: the run exits 1 unless hashing
// time grows Steering < Scan < Image. `--out` writes the summary as JSON
// (schema-checked by tools/check_bench_json.py).
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "crypto/pkcs1.h"
#include "pubsub/message.h"
#include "sim/workload.h"

namespace {

using namespace adlp;
using namespace adlp::bench;

const crypto::RsaKeyPair& Key1024() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(20190707);
    return crypto::GenerateRsaKeyPair(rng, 1024);
  }();
  return kp;
}

Bytes PayloadFor(const std::string& type) {
  Rng rng(1);
  return sim::MakePayload(rng, sim::PaperDataType(type).size_bytes);
}

void BM_HashOnly(benchmark::State& state, const std::string& type) {
  const Bytes payload = PayloadFor(type);
  for (auto _ : state) {
    auto digest = crypto::Sha256Digest(payload);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

void BM_HashAndSign(benchmark::State& state, const std::string& type) {
  const Bytes payload = PayloadFor(type);
  const auto& key = Key1024();
  for (auto _ : state) {
    auto sig = crypto::Pkcs1Sign(key.priv, crypto::Sha256Digest(payload));
    benchmark::DoNotOptimize(sig);
  }
}

void BM_Verify(benchmark::State& state, const std::string& type) {
  const Bytes payload = PayloadFor(type);
  const auto& key = Key1024();
  const auto digest = crypto::Sha256Digest(payload);
  const Bytes sig = crypto::Pkcs1Sign(key.priv, digest);
  for (auto _ : state) {
    bool ok = crypto::Pkcs1Verify(key.pub, digest, sig);
    benchmark::DoNotOptimize(ok);
  }
}

void RegisterAll() {
  for (const auto& spec : sim::PaperDataTypes()) {
    benchmark::RegisterBenchmark(("HashOnly/" + spec.name).c_str(),
                                 [name = spec.name](benchmark::State& s) {
                                   BM_HashOnly(s, name);
                                 });
    benchmark::RegisterBenchmark(("HashAndSign/" + spec.name).c_str(),
                                 [name = spec.name](benchmark::State& s) {
                                   BM_HashAndSign(s, name);
                                 });
    benchmark::RegisterBenchmark(("Verify/" + spec.name).c_str(),
                                 [name = spec.name](benchmark::State& s) {
                                   BM_Verify(s, name);
                                 });
  }
}

struct PaperRow {
  const char* type;
  double hash_ms;
  double hash_sign_ms;
};

// Paper Table I (PyCrypto on an i5-7260U).
constexpr PaperRow kPaperRows[] = {
    {"Steering", 0.109, 3.042},
    {"Scan", 0.201, 3.129},
    {"Image", 2.638, 3.457},
};

struct SummaryRow {
  std::string type;
  std::size_t size_bytes = 0;
  SampleStats hash;
  SampleStats hash_sign;
};

constexpr std::size_t kSamples = 1000;  // paper used 3000

std::vector<SummaryRow> PrintSummaryTable() {
  PrintHeader("Table I: hashing and signing time for different data types");
  std::printf("%-10s %10s | %-24s | %-24s\n", "Type", "Size(B)",
              "Hashing only  avg (stdev)", "Hash+Sign  avg (stdev)");
  PrintRule(92);

  std::vector<SummaryRow> rows;
  for (std::size_t i = 0; i < sim::PaperDataTypes().size(); ++i) {
    const auto& spec = sim::PaperDataTypes()[i];
    const Bytes payload = PayloadFor(spec.name);
    const auto& key = Key1024();

    SummaryRow row{spec.name, spec.size_bytes};
    row.hash = ComputeStats(TimeSamplesMs(kSamples, [&] {
      auto d = crypto::Sha256Digest(payload);
      benchmark::DoNotOptimize(d);
    }));
    row.hash_sign = ComputeStats(TimeSamplesMs(kSamples, [&] {
      auto s = crypto::Pkcs1Sign(key.priv, crypto::Sha256Digest(payload));
      benchmark::DoNotOptimize(s);
    }));

    std::printf("%-10s %10zu | %9.4f ms (%.4f ms)   | %9.4f ms (%.4f ms)\n",
                spec.name.c_str(), spec.size_bytes, row.hash.mean,
                row.hash.stdev, row.hash_sign.mean, row.hash_sign.stdev);
    std::printf("%-10s %10s | paper: %6.3f ms          | paper: %6.3f ms\n",
                "", "", kPaperRows[i].hash_ms, kPaperRows[i].hash_sign_ms);
    rows.push_back(std::move(row));
  }
  PrintRule(92);
  std::printf(
      "shape checks: (1) hash+sign ~flat vs size for small data (RSA "
      "dominates);\n"
      "              (2) hashing cost grows ~linearly with size and "
      "approaches signing cost at Image size.\n");
  return rows;
}

/// The hardware-independent half of the paper's shape: rows come in
/// PaperDataTypes order (Steering, Scan, Image), smallest first.
bool HashGrowsWithSize(const std::vector<SummaryRow>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (!(rows[i - 1].hash.mean < rows[i].hash.mean)) return false;
  }
  return true;
}

void WriteJson(const std::vector<SummaryRow>& rows, bool hash_grows,
               const std::string& path) {
  const auto ms = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
  };
  audit::JsonEmitter e(/*pretty=*/true);
  e.OpenObject();
  EmitHardwareStamp(e);
  e.OpenObject("config");
  e.NumberField("samples", kSamples);
  e.NumberField("rsa_bits", 1024);
  e.CloseObject();
  e.OpenArray("results");
  for (const SummaryRow& row : rows) {
    e.OpenObject();
    e.StringField("type", row.type);
    e.NumberField("size_bytes", row.size_bytes);
    e.Field("hash_ms_mean", ms(row.hash.mean));
    e.Field("hash_ms_stdev", ms(row.hash.stdev));
    e.Field("hash_sign_ms_mean", ms(row.hash_sign.mean));
    e.Field("hash_sign_ms_stdev", ms(row.hash_sign.stdev));
    e.CloseObject();
  }
  e.CloseArray();
  e.OpenObject("gate");
  e.Field("hash_grows_with_size", hash_grows ? "true" : "false");
  e.CloseObject();
  e.Field("table1_ok", hash_grows ? "true" : "false");
  e.CloseObject();
  std::ofstream out(path);
  out << std::move(e).Take() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // --out is this bench's; every other argument goes to google-benchmark.
  std::string out_path;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  RegisterAll();
  benchmark::Initialize(&bench_argc, bench_args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::vector<SummaryRow> rows = PrintSummaryTable();
  const bool hash_grows = HashGrowsWithSize(rows);
  if (!out_path.empty()) WriteJson(rows, hash_grows, out_path);
  if (!hash_grows) {
    std::fprintf(stderr,
                 "bench_table1_crypto: FAILURE — hashing time does not grow "
                 "Steering < Scan < Image\n");
    return 1;
  }
  return 0;
}
