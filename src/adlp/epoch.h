// Signed, Merkle-rooted epoch seals — the unit of replication and
// cross-replica audit.
//
// The logger periodically seals its record stream into an `EpochRoot`: the
// Merkle root over ALL records so far (cumulative, RFC 6962 style), the
// covered leaf count, and a hash link to the previous seal. The seal is
// signed with the logger's key, so a root is a non-repudiable statement
// "after N records my log was exactly this tree". That statement is what
// makes replicas auditable against each other:
//
//   * two replicas signing DIFFERENT roots for the same epoch index have
//     provably diverged — logger equivocation, the new verdict class;
//   * an auditor verifies a sampled record in O(log n) with an inclusion
//     proof against a sealed root instead of recomputing the whole tree;
//   * consecutive roots of one replica must be Merkle-consistent
//     (append-only); a broken prev-hash link or a root that does not match
//     a recomputation over the stored records is store tampering.
//
// Wire encoding lives here (not in wire_msgs.h) because epoch roots travel
// on the logger-to-auditor path and into log files, not the pub/sub data
// plane.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sig.h"

namespace adlp::proto {

struct EpochRoot {
  std::uint64_t epoch = 0;      // 0-based seal index
  std::uint64_t tree_size = 0;  // leaves (records) covered by `root`
  crypto::Digest root{};        // Merkle root over records[0, tree_size)
  /// Hash link: EpochRootDigest of the previous seal (EpochGenesis() for
  /// epoch 0). Chains seals so one cannot be dropped or reordered
  /// undetected.
  crypto::Digest prev_root_hash{};
  Timestamp sealed_at = 0;      // logger wall time of the seal
  crypto::ComponentId logger;   // signing replica's identity
  Bytes signature;              // sign(EpochRootDigest(*this))

  bool operator==(const EpochRoot&) const = default;
};

/// Digest the seal signature covers (every field except the signature,
/// length-framed under a domain tag).
crypto::Digest EpochRootDigest(const EpochRoot& root);

/// prev_root_hash of epoch 0.
crypto::Digest EpochGenesis();

Bytes SerializeEpochRoot(const EpochRoot& root);
/// Throws wire::WireError on malformed input (including digests of hostile
/// length: both hashes must be exactly 32 bytes).
EpochRoot ParseEpochRoot(BytesView wire_bytes);

/// Signature check under the claimed logger's key.
bool VerifyEpochRootSignature(const EpochRoot& root,
                              const crypto::PublicKey& key);

/// Structural chain check over one replica's seals: epoch indices
/// contiguous from 0, tree sizes strictly increasing, every prev_root_hash
/// linking to its predecessor's digest, every signature valid under `key`.
/// Returns the index of the first bad seal, or roots.size() if all hold.
std::size_t VerifyEpochChain(const std::vector<EpochRoot>& roots,
                             const crypto::PublicKey& key);

/// The deterministic Ed25519 sealing keypair for `seed`. Replicas of one
/// logical logger share a seed (LogServerOptions::seal_key_seed), and an
/// offline auditor regenerates the same pair to verify the whole fleet —
/// the prototype's stand-in for seal-key distribution.
crypto::SigKeyPair EpochSealKeys(std::uint64_t seed);

}  // namespace adlp::proto
