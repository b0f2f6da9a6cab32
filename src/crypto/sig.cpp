#include "crypto/sig.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "crypto/pkcs1.h"
#include "wire/wire.h"

namespace adlp::crypto {

namespace {
enum : std::uint32_t {
  kFieldAlg = 1,
  kFieldRsaModulus = 2,
  kFieldRsaExponent = 3,
  kFieldEd25519 = 4,
};
}  // namespace

std::string_view SigAlgorithmName(SigAlgorithm alg) {
  switch (alg) {
    case SigAlgorithm::kRsaPkcs1Sha256: return "rsa-pkcs1-sha256";
    case SigAlgorithm::kEd25519: return "ed25519";
  }
  return "unknown";
}

std::size_t PublicKey::SignatureSize() const {
  switch (alg) {
    case SigAlgorithm::kRsaPkcs1Sha256:
      return rsa.ModulusBytes();
    case SigAlgorithm::kEd25519:
      return kEd25519SignatureSize;
  }
  return 0;
}

SigKeyPair GenerateSigKeyPair(Rng& rng, SigAlgorithm alg,
                              std::size_t rsa_bits) {
  SigKeyPair kp;
  kp.pub.alg = alg;
  kp.priv.alg = alg;
  switch (alg) {
    case SigAlgorithm::kRsaPkcs1Sha256: {
      const RsaKeyPair rsa = GenerateRsaKeyPair(rng, rsa_bits);
      kp.pub.rsa = rsa.pub;
      kp.priv.rsa = rsa.priv;
      break;
    }
    case SigAlgorithm::kEd25519: {
      const Ed25519KeyPair ed = GenerateEd25519KeyPair(rng);
      kp.pub.ed25519 = ed.pub;
      kp.priv.ed25519 = ed.priv;
      break;
    }
  }
  return kp;
}

Bytes SignDigest(const PrivateKey& key, const Digest& digest) {
  switch (key.alg) {
    case SigAlgorithm::kRsaPkcs1Sha256:
      return Pkcs1Sign(key.rsa, digest);
    case SigAlgorithm::kEd25519:
      return Ed25519Sign(key.ed25519,
                         BytesView(digest.data(), digest.size()));
  }
  return {};
}

bool VerifyDigest(const PublicKey& key, const Digest& digest,
                  BytesView signature) {
  switch (key.alg) {
    case SigAlgorithm::kRsaPkcs1Sha256:
      return Pkcs1Verify(key.rsa, digest, signature);
    case SigAlgorithm::kEd25519:
      return Ed25519Verify(key.ed25519,
                           BytesView(digest.data(), digest.size()),
                           signature);
  }
  return false;
}

Bytes SerializePublicKey(const PublicKey& key) {
  wire::Writer w;
  w.PutU64(kFieldAlg, static_cast<std::uint64_t>(key.alg));
  switch (key.alg) {
    case SigAlgorithm::kRsaPkcs1Sha256:
      w.PutBytes(kFieldRsaModulus, key.rsa.n.ToBytesBE());
      w.PutBytes(kFieldRsaExponent, key.rsa.e.ToBytesBE());
      break;
    case SigAlgorithm::kEd25519:
      w.PutBytes(kFieldEd25519,
                 BytesView(key.ed25519.bytes.data(), key.ed25519.bytes.size()));
      break;
  }
  return std::move(w).Take();
}

namespace {

/// In-batch dedup: two requests are one triple when they name the same key
/// object and carry equal digest and signature bytes. The key pointer is
/// the key's identity for the length of one VerifyDigestBatch call.
struct TripleHash {
  std::size_t operator()(const VerifyRequest* r) const {
    const auto bytes = [](BytesView b) {
      const std::string_view view(reinterpret_cast<const char*>(b.data()),
                                  b.size());
      return std::hash<std::string_view>{}(view);
    };
    std::size_t h = std::hash<const PublicKey*>{}(r->key);
    h = h * 31 + bytes(BytesView(r->digest.data(), r->digest.size()));
    return h * 31 + bytes(r->signature);
  }
};

struct SameTriple {
  bool operator()(const VerifyRequest* a, const VerifyRequest* b) const {
    return a->key == b->key && a->digest == b->digest &&
           std::ranges::equal(a->signature, b->signature);
  }
};

}  // namespace

std::vector<std::uint8_t> VerifyDigestBatch(
    const std::vector<VerifyRequest>& requests) {
  // Pass 1 — dedup. Each distinct triple gets one slot, named by the index
  // of its first request.
  std::vector<std::size_t> slot_first;
  slot_first.reserve(requests.size());
  std::unordered_map<const VerifyRequest*, std::size_t, TripleHash, SameTriple>
      slot_of;
  slot_of.reserve(requests.size());
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> request_slot(requests.size(), kNoSlot);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const VerifyRequest& req = requests[i];
    if (req.key == nullptr || req.signature.empty()) continue;
    const auto [it, fresh] = slot_of.try_emplace(&req, slot_first.size());
    if (fresh) slot_first.push_back(i);
    request_slot[i] = it->second;
  }

  // Pass 2 — verify each slot, grouped by algorithm. Ed25519 goes through
  // the combined-equation batch kernel; RSA keeps the per-signature path
  // (paper parity — its verification is a cheap public-exponent modexp).
  std::vector<std::uint8_t> slot_ok(slot_first.size(), 0);
  std::vector<std::size_t> ed_slots;
  std::vector<Ed25519BatchItem> ed_items;
  for (std::size_t s = 0; s < slot_first.size(); ++s) {
    const VerifyRequest& req = requests[slot_first[s]];
    if (req.key->alg == SigAlgorithm::kEd25519) {
      ed_slots.push_back(s);
      ed_items.push_back({&req.key->ed25519,
                          BytesView(req.digest.data(), req.digest.size()),
                          req.signature});
      continue;
    }
    slot_ok[s] = VerifyDigest(*req.key, req.digest, req.signature) ? 1 : 0;
  }
  if (!ed_items.empty()) {
    const std::vector<std::uint8_t> verdicts = Ed25519VerifyBatch(ed_items);
    for (std::size_t j = 0; j < ed_slots.size(); ++j) {
      slot_ok[ed_slots[j]] = verdicts[j];
    }
  }

  // Pass 3 — fan slot verdicts out to every request.
  std::vector<std::uint8_t> results(requests.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (request_slot[i] != kNoSlot) results[i] = slot_ok[request_slot[i]];
  }
  return results;
}

PublicKey ParsePublicKey(BytesView data) {
  PublicKey key;
  wire::Reader r(data);
  std::uint32_t field;
  wire::WireType type;
  while (r.NextField(field, type)) {
    switch (field) {
      case kFieldAlg: {
        const std::uint64_t raw = r.GetU64Value();
        switch (raw) {
          case static_cast<std::uint64_t>(SigAlgorithm::kRsaPkcs1Sha256):
          case static_cast<std::uint64_t>(SigAlgorithm::kEd25519):
            key.alg = static_cast<SigAlgorithm>(raw);
            break;
          default:
            throw wire::WireError("public key: unknown algorithm");
        }
        break;
      }
      case kFieldRsaModulus:
        key.rsa.n = BigInt::FromBytesBE(r.GetBytesValue());
        break;
      case kFieldRsaExponent:
        key.rsa.e = BigInt::FromBytesBE(r.GetBytesValue());
        break;
      case kFieldEd25519: {
        const Bytes raw = r.GetBytesValue();
        if (raw.size() != kEd25519PublicKeySize) {
          throw wire::WireError("public key: bad ed25519 length");
        }
        std::copy(raw.begin(), raw.end(), key.ed25519.bytes.begin());
        break;
      }
      default:
        r.SkipValue(type);
        break;
    }
  }
  return key;
}

}  // namespace adlp::crypto
