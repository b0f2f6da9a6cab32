// Parameterized end-to-end sweep: every protocol option combination must
// deliver application data unchanged AND produce logs the auditor
// classifies fully valid.
#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "test_util.h"

namespace adlp::proto {
namespace {

struct MatrixParam {
  LoggingScheme scheme;
  pubsub::TransportKind transport;
  bool subscriber_stores_hash;
  bool ack_carries_data;
  bool aggregate;
  std::size_t ack_window;
  std::size_t payload_size;
  crypto::SigAlgorithm sig = crypto::SigAlgorithm::kRsaPkcs1Sha256;

  std::string Name() const {
    std::string n;
    n += scheme == LoggingScheme::kAdlp
             ? "adlp"
             : (scheme == LoggingScheme::kBase ? "base" : "none");
    n += transport == pubsub::TransportKind::kTcp ? "_tcp" : "_inproc";
    n += subscriber_stores_hash ? "_hash" : "_data";
    n += ack_carries_data ? "_ackdata" : "_ackhash";
    n += aggregate ? "_agg" : "_plain";
    n += "_w" + std::to_string(ack_window);
    n += "_p" + std::to_string(payload_size);
    if (sig == crypto::SigAlgorithm::kEd25519) n += "_ed25519";
    return n;
  }
};

class ProtocolMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ProtocolMatrixTest, DeliversAndAuditsClean) {
  const MatrixParam& param = GetParam();
  test::MiniSystem sys;

  ComponentOptions opts = test::FastOptions(param.scheme);
  opts.transport = param.transport;
  opts.adlp.subscriber_stores_hash = param.subscriber_stores_hash;
  opts.adlp.ack_carries_data = param.ack_carries_data;
  opts.adlp.aggregate_publisher_log = param.aggregate;
  opts.ack_window = param.ack_window;
  opts.sig_algorithm = param.sig;

  auto& pub = sys.Add("pub", opts);
  auto& sub1 = sys.Add("sub1", opts);
  auto& sub2 = sys.Add("sub2", opts);

  constexpr int kMessages = 5;
  Rng rng(1);
  std::vector<Bytes> payloads;
  for (int i = 0; i < kMessages; ++i) {
    payloads.push_back(rng.RandomBytes(param.payload_size));
  }

  std::atomic<int> delivered{0};
  std::atomic<int> mismatches{0};
  auto callback = [&](const pubsub::Message& m) {
    if (m.header.seq < 1 || m.header.seq > kMessages ||
        m.payload != payloads[m.header.seq - 1]) {
      mismatches++;
    }
    delivered++;
  };
  sub1.Subscribe("t", callback);
  sub2.Subscribe("t", callback);

  auto& publisher = pub.Advertise("t");
  ASSERT_TRUE(publisher.WaitForSubscribers(2));
  for (const auto& payload : payloads) publisher.Publish(payload);
  ASSERT_TRUE(
      test::WaitFor([&] { return delivered.load() == 2 * kMessages; }));
  EXPECT_EQ(mismatches.load(), 0);

  sys.ShutdownAll();

  if (param.scheme == LoggingScheme::kNone) {
    EXPECT_EQ(sys.server.EntryCount(), 0u);
    return;
  }

  EXPECT_TRUE(sys.server.VerifyRecords());
  const audit::AuditReport report =
      audit::Auditor(sys.server.Keys())
          .Audit(sys.server.Entries(), sys.master.Topology());
  EXPECT_TRUE(report.unfaithful.empty()) << report.Render();
  EXPECT_EQ(report.TotalInvalid(), 0u) << report.Render();
  if (param.scheme == LoggingScheme::kAdlp) {
    EXPECT_EQ(report.TotalHidden(), 0u) << report.Render();
    // 2 subscribers x kMessages instances, all OK.
    EXPECT_EQ(report.verdicts.size(), 2u * kMessages);
    for (const auto& v : report.verdicts) {
      EXPECT_EQ(v.finding, audit::Finding::kOk)
          << audit::FindingName(v.finding);
    }
  }
}

std::vector<MatrixParam> AllCombinations() {
  std::vector<MatrixParam> params;
  // ADLP: the full option matrix over in-proc, plus a TCP spot-check.
  for (bool hash : {true, false}) {
    for (bool ackdata : {true, false}) {
      for (bool agg : {true, false}) {
        for (std::size_t window : {1u, 3u}) {
          params.push_back({LoggingScheme::kAdlp,
                            pubsub::TransportKind::kInProc, hash, ackdata,
                            agg, window, 200});
        }
      }
    }
  }
  params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kTcp, true,
                    false, false, 1, 200});
  params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kTcp, true,
                    false, true, 2, 5000});
  // Base and None over both transports.
  for (auto transport :
       {pubsub::TransportKind::kInProc, pubsub::TransportKind::kTcp}) {
    params.push_back(
        {LoggingScheme::kBase, transport, true, false, false, 1, 200});
    params.push_back(
        {LoggingScheme::kNone, transport, true, false, false, 1, 200});
  }
  // Payload-size spread under the default ADLP configuration.
  for (std::size_t size : {0u, 1u, 20u, 8705u, 100'000u}) {
    params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kInProc,
                      true, false, false, 1, size});
  }
  // The lightweight-crypto variant (Sec. VI-E): Ed25519 identities through
  // the full stack, including TCP and aggregation.
  params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kInProc,
                    true, false, false, 1, 200,
                    crypto::SigAlgorithm::kEd25519});
  params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kInProc,
                    false, true, true, 2, 5000,
                    crypto::SigAlgorithm::kEd25519});
  params.push_back({LoggingScheme::kAdlp, pubsub::TransportKind::kTcp, true,
                    false, false, 1, 200, crypto::SigAlgorithm::kEd25519});
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllOptions, ProtocolMatrixTest, ::testing::ValuesIn(AllCombinations()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace adlp::proto
