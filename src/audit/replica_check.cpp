#include "audit/replica_check.h"

#include <algorithm>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "obs/instrument.h"

namespace adlp::audit {

namespace {

std::string HexPrefix(const crypto::Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < 4; ++i) {
    out += kHex[d[i] >> 4];
    out += kHex[d[i] & 0xf];
  }
  return out;
}

/// Per-replica seal validation. Returns the structurally valid prefix of
/// the replica's seal chain: everything after the first bad seal is
/// untrusted (its prev-root linkage is rooted in the damage).
std::vector<proto::EpochRoot> CheckReplicaSeals(
    const ReplicaEvidence& replica, const ReplicaCheckOptions& options,
    ReplicaCheckResult& result) {
  const std::size_t bad =
      proto::VerifyEpochChain(replica.roots, options.seal_key);
  std::vector<proto::EpochRoot> valid(
      replica.roots.begin(),
      replica.roots.begin() + static_cast<std::ptrdiff_t>(bad));
  if (bad == replica.roots.size()) return valid;
  const proto::EpochRoot& r = replica.roots[bad];
  const std::uint64_t prev_size = valid.empty() ? 0 : valid.back().tree_size;
  const crypto::Digest prev = valid.empty()
                                  ? proto::EpochGenesis()
                                  : proto::EpochRootDigest(valid.back());
  ReplicaVerdict v;
  v.replica = replica.name;
  v.epoch = r.epoch;
  v.implicated = {replica.name};
  if (r.epoch != bad || r.tree_size <= prev_size || r.prev_root_hash != prev) {
    v.finding = ReplicaFinding::kRootChainBroken;
    v.detail = "seal " + std::to_string(bad) + " breaks the chain (epoch " +
               std::to_string(r.epoch) + ", tree size " +
               std::to_string(r.tree_size) + " after " +
               std::to_string(prev_size) + ")";
  } else {
    v.finding = ReplicaFinding::kSealInvalid;
    v.detail = "seal signature fails under the fleet key";
  }
  result.verdicts.push_back(std::move(v));
  return valid;
}

/// Recomputes roots from the replica's stored records and spot-checks
/// sampled inclusion proofs against the sealed roots.
void CheckReplicaStore(const ReplicaEvidence& replica,
                       const std::vector<proto::EpochRoot>& seals,
                       const ReplicaCheckOptions& options,
                       ReplicaCheckResult& result) {
  crypto::MerkleTree tree;
  for (const Bytes& record : replica.records) tree.Append(record);
  for (const proto::EpochRoot& seal : seals) {
    ReplicaVerdict v;
    v.replica = replica.name;
    v.epoch = seal.epoch;
    v.implicated = {replica.name};
    if (seal.tree_size > tree.Size()) {
      v.finding = ReplicaFinding::kRootMismatch;
      v.detail = "seal covers " + std::to_string(seal.tree_size) +
                 " records but the store holds only " +
                 std::to_string(tree.Size());
      result.verdicts.push_back(std::move(v));
      return;  // every later seal covers even more missing records
    }
    if (tree.RootAt(seal.tree_size) != seal.root) {
      v.finding = ReplicaFinding::kRootMismatch;
      v.detail = "recomputed root " + HexPrefix(tree.RootAt(seal.tree_size)) +
                 "... != sealed root " + HexPrefix(seal.root) + "...";
      result.verdicts.push_back(std::move(v));
      continue;
    }
    // The sealed root matches the store; sampled inclusion proofs are the
    // O(log n) audit primitive an investigator without the full store
    // would use, exercised here end to end.
    Rng rng(options.sample_seed ^ seal.epoch);
    const std::size_t samples = std::min<std::size_t>(
        options.samples_per_epoch, seal.tree_size);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::uint64_t index = rng.UniformBelow(seal.tree_size);
      const std::vector<crypto::Digest> proof =
          tree.InclusionProof(index, seal.tree_size);
      if (!crypto::MerkleTree::VerifyInclusion(replica.records[index], index,
                                               seal.tree_size, proof,
                                               seal.root)) {
        ReplicaVerdict bad;
        bad.replica = replica.name;
        bad.epoch = seal.epoch;
        bad.finding = ReplicaFinding::kInclusionInvalid;
        bad.implicated = {replica.name};
        bad.detail =
            "record " + std::to_string(index) + " fails its inclusion proof";
        result.verdicts.push_back(std::move(bad));
      } else {
        ++result.proofs_checked;
      }
    }
  }
}

}  // namespace

std::string_view ReplicaFindingName(ReplicaFinding f) {
  switch (f) {
    case ReplicaFinding::kSealInvalid: return "seal-invalid";
    case ReplicaFinding::kRootChainBroken: return "root-chain-broken";
    case ReplicaFinding::kRootMismatch: return "root-mismatch";
    case ReplicaFinding::kInclusionInvalid: return "inclusion-invalid";
    case ReplicaFinding::kEquivocation: return "logger-equivocation";
  }
  return "unknown";
}

ReplicaCheckResult CheckReplicas(const std::vector<ReplicaEvidence>& replicas,
                                 const ReplicaCheckOptions& options) {
  ReplicaCheckResult result;

  // Phase 1+2: each replica against its own seals and store.
  std::vector<std::vector<proto::EpochRoot>> valid_seals;
  valid_seals.reserve(replicas.size());
  for (const ReplicaEvidence& replica : replicas) {
    std::vector<proto::EpochRoot> seals =
        CheckReplicaSeals(replica, options, result);
    if (!replica.roots_only) {
      CheckReplicaStore(replica, seals, options, result);
    }
    valid_seals.push_back(std::move(seals));
  }

  // Phase 3: cross-replica. Only structurally valid seals participate —
  // a forged seal already has its own verdict and must not also manufacture
  // an "equivocation" against honest replicas.
  std::uint64_t max_epochs = 0;
  for (const auto& seals : valid_seals) {
    max_epochs = std::max<std::uint64_t>(max_epochs, seals.size());
  }
  for (std::uint64_t epoch = 0; epoch < max_epochs; ++epoch) {
    // Distinct (tree_size, root) statements for this epoch.
    std::vector<std::size_t> holders;
    bool divergent = false;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      if (epoch >= valid_seals[r].size()) continue;
      if (!holders.empty()) {
        const proto::EpochRoot& a = valid_seals[holders.front()][epoch];
        const proto::EpochRoot& b = valid_seals[r][epoch];
        if (a.tree_size != b.tree_size || a.root != b.root) divergent = true;
      }
      holders.push_back(r);
    }
    if (!divergent) continue;
    ReplicaVerdict v;
    v.replica = replicas[holders.front()].name;
    v.epoch = epoch;
    v.finding = ReplicaFinding::kEquivocation;
    v.detail = "replicas sealed divergent roots for epoch " +
               std::to_string(epoch) + ":";
    for (std::size_t r : holders) {
      const proto::EpochRoot& seal = valid_seals[r][epoch];
      v.implicated.push_back(replicas[r].name);
      v.detail += " " + replicas[r].name + "=" + HexPrefix(seal.root) +
                  ".../" + std::to_string(seal.tree_size);
      result.equivocating.insert(seal.logger);
    }
    result.verdicts.push_back(std::move(v));
  }

  // Informational lag: a valid proper prefix is a crashed/partitioned
  // replica, not a finding.
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (valid_seals[r].size() < max_epochs) {
      result.behind[replicas[r].name] = max_epochs - valid_seals[r].size();
    }
  }
  return result;
}

std::optional<ReplicaEvidence> FetchReplicaEvidence(proto::PeerSync& sync,
                                                    std::string name) {
  auto roots = sync.FetchRootsSince(0);
  if (!roots) return std::nullopt;
  ReplicaEvidence evidence;
  evidence.name = std::move(name);
  evidence.roots = std::move(*roots);
  evidence.roots_only = true;
  return evidence;
}

void CheckReplicaWireProofs(proto::PeerSync& sync,
                            const ReplicaEvidence& replica,
                            const ReplicaCheckOptions& options,
                            ReplicaCheckResult& result) {
  // Same valid-prefix rule as CheckReplicas: seals after the first broken
  // one are rooted in the damage and earn no spot checks. Their verdicts
  // were recorded when this evidence went through CheckReplicas.
  const std::vector<proto::EpochRoot> seals(
      replica.roots.begin(),
      replica.roots.begin() +
          static_cast<std::ptrdiff_t>(
              proto::VerifyEpochChain(replica.roots, options.seal_key)));

  for (const proto::EpochRoot& seal : seals) {
    // Identical sample stream to CheckReplicaStore, so the wire audit and
    // the exported-file audit spot-check the same records.
    Rng rng(options.sample_seed ^ seal.epoch);
    const std::size_t samples =
        std::min<std::size_t>(options.samples_per_epoch, seal.tree_size);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::uint64_t index = rng.UniformBelow(seal.tree_size);
      ReplicaVerdict bad;
      bad.replica = replica.name;
      bad.epoch = seal.epoch;
      bad.finding = ReplicaFinding::kInclusionInvalid;
      bad.implicated = {replica.name};
      const auto record = sync.FetchRecords(index, 1);
      const auto proof = sync.FetchInclusionProof(index, seal.tree_size);
      if (!record || record->first != index || record->records.size() != 1 ||
          !proof) {
        // The replica SIGNED this seal; refusing to serve the evidence
        // behind it is indistinguishable from not having it.
        bad.detail = "record " + std::to_string(index) +
                     " could not be fetched for its sealed epoch";
        result.verdicts.push_back(std::move(bad));
        continue;
      }
      if (!crypto::MerkleTree::VerifyInclusion(record->records.front(), index,
                                               seal.tree_size, *proof,
                                               seal.root)) {
        bad.detail =
            "record " + std::to_string(index) + " fails its inclusion proof";
        result.verdicts.push_back(std::move(bad));
      } else {
        ++result.proofs_checked;
      }
    }
  }
}

void ApplyReplicaFindings(AuditReport& report, ReplicaCheckResult result) {
  if (!result.verdicts.empty()) {
    obs::metric::ReplicaFindingsTotal().Add(result.verdicts.size());
  }
  for (const crypto::ComponentId& logger : result.equivocating) {
    report.unfaithful.insert(logger);
    ++report.stats[logger].blamed;
  }
  for (ReplicaVerdict& v : result.verdicts) {
    report.replica_verdicts.push_back(std::move(v));
  }
}

}  // namespace adlp::audit
