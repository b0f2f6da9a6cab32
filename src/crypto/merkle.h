// Incremental Merkle hash tree (RFC 6962 construction) over the trusted
// logger's serialized records — the only hash structure over them.
//
// The root commits to every record in order, so any modification, deletion,
// insertion, or reordering changes it. Sealing the log into Merkle-rooted
// epochs also gives auditors two O(log n) primitives instead of an O(n) walk
// ("Accountability of Things" large-scale tamper-evident logging):
//
//   * inclusion proof — record i is covered by root R over n leaves;
//   * consistency proof — the tree of size m whose root was sealed earlier
//     is a prefix of the tree of size n sealed later (append-only: nothing
//     was removed, reordered, or rewritten under the old root).
//
// Domain separation follows RFC 6962 exactly so leaf and interior hashes can
// never collide across roles:
//
//   leaf     = H(0x00 || record)
//   interior = H(0x01 || left || right)
//   MTH([])  = H("")
//
// The split point of an n-leaf tree is the largest power of two < n, which
// makes every tree shape a pure function of the leaf count — proofs are
// reproducible by any verifier from (index, size) alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace adlp::crypto {

class MerkleTree {
 public:
  MerkleTree() = default;

  /// Appends a record as the next leaf; returns its leaf index.
  std::uint64_t Append(BytesView record);

  /// Number of leaves.
  std::uint64_t Size() const { return leaves_.size(); }

  /// Root over all leaves appended so far (MTH of the empty list when
  /// empty). O(log n): folded from the cached perfect-subtree root stack.
  Digest Root() const;

  /// Root over the first `size` leaves (a past epoch's view). O(size), or
  /// O(log n) when `size` is the current size.
  Digest RootAt(std::uint64_t size) const;

  /// Audit path for leaf `index` within the tree of the first `size`
  /// leaves (sibling hashes, leaf level upward). Requires index < size and
  /// size <= Size().
  std::vector<Digest> InclusionProof(std::uint64_t index,
                                     std::uint64_t size) const;

  /// Consistency proof between the trees over the first `old_size` and
  /// first `new_size` leaves. Requires old_size <= new_size <= Size().
  std::vector<Digest> ConsistencyProof(std::uint64_t old_size,
                                       std::uint64_t new_size) const;

  /// Checks an audit path: does `record` sit at `index` in the `size`-leaf
  /// tree with root `root`?
  static bool VerifyInclusion(BytesView record, std::uint64_t index,
                              std::uint64_t size,
                              const std::vector<Digest>& proof,
                              const Digest& root);

  /// Checks a consistency proof: is the `old_size` tree with root
  /// `old_root` a prefix of the `new_size` tree with root `new_root`?
  static bool VerifyConsistency(std::uint64_t old_size, std::uint64_t new_size,
                                const Digest& old_root, const Digest& new_root,
                                const std::vector<Digest>& proof);

  static Digest HashLeaf(BytesView record);
  static Digest HashInterior(const Digest& left, const Digest& right);
  static Digest EmptyRoot();

 private:
  /// MTH over leaves_[first, first + count). Tree shape is dictated by
  /// `count` alone (largest-power-of-two split), so any (first, count)
  /// subrange evaluates to the canonical subtree hash.
  Digest SubtreeRoot(std::uint64_t first, std::uint64_t count) const;

  void PathTo(std::uint64_t index, std::uint64_t first, std::uint64_t count,
              std::vector<Digest>& out) const;

  /// RFC 6962 SUBPROOF: consistency between the old tree (the first
  /// `old_size` leaves overall) and the subtree at [first, first + count).
  /// `complete` is true while the old tree fully contains the subtree.
  void SubProof(std::uint64_t old_size, std::uint64_t first,
                std::uint64_t count, bool complete,
                std::vector<Digest>& out) const;

  std::vector<Digest> leaves_;  // leaf hashes, in append order
  /// Roots of the maximal perfect subtrees covering the current leaves,
  /// leftmost (largest) first — the classic O(log n) append accumulator.
  std::vector<Digest> stack_;
  /// Leaf counts of the perfect subtrees in stack_ (parallel array).
  std::vector<std::uint64_t> stack_sizes_;
};

}  // namespace adlp::crypto
