#include "crypto/merkle.h"

namespace adlp::crypto {

namespace {

/// Largest power of two strictly less than n (n >= 2).
std::uint64_t SplitPoint(std::uint64_t n) {
  std::uint64_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}

}  // namespace

Digest MerkleTree::HashLeaf(BytesView record) {
  const std::uint8_t prefix = 0x00;
  return Sha256Digest2(BytesView(&prefix, 1), record);
}

Digest MerkleTree::HashInterior(const Digest& left, const Digest& right) {
  Sha256 h;
  const std::uint8_t prefix = 0x01;
  h.Update(BytesView(&prefix, 1));
  h.Update(BytesView(left.data(), left.size()));
  h.Update(BytesView(right.data(), right.size()));
  return h.Finish();
}

Digest MerkleTree::EmptyRoot() { return Sha256Digest(BytesView()); }

std::uint64_t MerkleTree::Append(BytesView record) {
  const std::uint64_t index = leaves_.size();
  leaves_.push_back(HashLeaf(record));
  // Push a 1-leaf subtree, then merge equal-sized neighbours: the stack
  // always holds the strictly-decreasing perfect-subtree decomposition of
  // the leaf count (its binary representation).
  stack_.push_back(leaves_.back());
  stack_sizes_.push_back(1);
  while (stack_sizes_.size() >= 2 &&
         stack_sizes_[stack_sizes_.size() - 1] ==
             stack_sizes_[stack_sizes_.size() - 2]) {
    const Digest right = stack_.back();
    stack_.pop_back();
    const std::uint64_t merged = 2 * stack_sizes_.back();
    stack_sizes_.pop_back();
    stack_.back() = HashInterior(stack_.back(), right);
    stack_sizes_.back() = merged;
  }
  return index;
}

Digest MerkleTree::Root() const {
  if (stack_.empty()) return EmptyRoot();
  // Fold right-to-left: the smallest (rightmost) subtree joins its left
  // neighbour first, exactly as the recursive MTH definition evaluates.
  Digest root = stack_.back();
  for (std::size_t i = stack_.size() - 1; i-- > 0;) {
    root = HashInterior(stack_[i], root);
  }
  return root;
}

Digest MerkleTree::RootAt(std::uint64_t size) const {
  if (size == Size()) return Root();
  if (size == 0) return EmptyRoot();
  return SubtreeRoot(0, size);
}

Digest MerkleTree::SubtreeRoot(std::uint64_t first, std::uint64_t count) const {
  if (count == 1) return leaves_[first];
  const std::uint64_t k = SplitPoint(count);
  return HashInterior(SubtreeRoot(first, k), SubtreeRoot(first + k, count - k));
}

std::vector<Digest> MerkleTree::InclusionProof(std::uint64_t index,
                                               std::uint64_t size) const {
  std::vector<Digest> proof;
  if (index >= size || size > leaves_.size()) return proof;
  PathTo(index, 0, size, proof);
  return proof;
}

void MerkleTree::PathTo(std::uint64_t index, std::uint64_t first,
                        std::uint64_t count, std::vector<Digest>& out) const {
  if (count == 1) return;
  const std::uint64_t k = SplitPoint(count);
  // Recurse first so siblings land leaf-level upward (verifier fold order).
  if (index < k) {
    PathTo(index, first, k, out);
    out.push_back(SubtreeRoot(first + k, count - k));
  } else {
    PathTo(index - k, first + k, count - k, out);
    out.push_back(SubtreeRoot(first, k));
  }
}

// RFC 9162 §2.1.3.2: replay the audit path bottom-up. fn/sn track the
// leaf's index and the last index at the current level; a set LSB(fn) (or
// fn == sn, the right edge) means the sibling is on the left.
bool MerkleTree::VerifyInclusion(BytesView record, std::uint64_t index,
                                 std::uint64_t size,
                                 const std::vector<Digest>& proof,
                                 const Digest& root) {
  if (index >= size) return false;
  Digest r = HashLeaf(record);
  std::uint64_t fn = index;
  std::uint64_t sn = size - 1;
  for (const Digest& p : proof) {
    if (sn == 0) return false;  // proof longer than the path
    if ((fn & 1) != 0 || fn == sn) {
      r = HashInterior(p, r);
      if ((fn & 1) == 0) {
        // Right-edge merge: skip the levels where this node has no sibling.
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = HashInterior(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

std::vector<Digest> MerkleTree::ConsistencyProof(std::uint64_t old_size,
                                                 std::uint64_t new_size) const {
  std::vector<Digest> proof;
  if (old_size == 0 || old_size > new_size || new_size > leaves_.size()) {
    return proof;
  }
  if (old_size == new_size) return proof;
  SubProof(old_size, 0, new_size, /*complete=*/true, proof);
  return proof;
}

void MerkleTree::SubProof(std::uint64_t old_size, std::uint64_t first,
                          std::uint64_t count, bool complete,
                          std::vector<Digest>& out) const {
  if (old_size == count) {
    // The old tree is exactly this subtree. Its root is known to the
    // verifier only if it was the WHOLE original tree (complete).
    if (!complete) out.push_back(SubtreeRoot(first, count));
    return;
  }
  const std::uint64_t k = SplitPoint(count);
  if (old_size <= k) {
    SubProof(old_size, first, k, complete, out);
    out.push_back(SubtreeRoot(first + k, count - k));
  } else {
    SubProof(old_size - k, first + k, count - k, /*complete=*/false, out);
    out.push_back(SubtreeRoot(first, k));
  }
}

// RFC 9162 §2.1.4.2: maintain two running hashes — fr must replay to the
// old root and sr to the new — walking the same index arithmetic the proof
// generator's SUBPROOF recursion used.
bool MerkleTree::VerifyConsistency(std::uint64_t old_size,
                                   std::uint64_t new_size,
                                   const Digest& old_root,
                                   const Digest& new_root,
                                   const std::vector<Digest>& proof) {
  if (old_size == 0 || old_size > new_size) return false;
  if (old_size == new_size) return proof.empty() && old_root == new_root;

  std::uint64_t fn = old_size - 1;
  std::uint64_t sn = new_size - 1;
  while ((fn & 1) != 0) {
    fn >>= 1;
    sn >>= 1;
  }
  std::size_t i = 0;
  Digest fr;
  Digest sr;
  if (fn == 0) {
    // The old tree is a perfect subtree of the new one: its root itself
    // seeds the replay, and every proof node extends toward the new root.
    fr = old_root;
    sr = old_root;
  } else {
    if (proof.empty()) return false;
    fr = proof[i];
    sr = proof[i];
    ++i;
  }
  for (; i < proof.size(); ++i) {
    if (sn == 0) return false;  // proof longer than the climb
    const Digest& c = proof[i];
    if ((fn & 1) != 0 || fn == sn) {
      fr = HashInterior(c, fr);
      sr = HashInterior(c, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = HashInterior(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && fr == old_root && sr == new_root;
}

}  // namespace adlp::crypto
