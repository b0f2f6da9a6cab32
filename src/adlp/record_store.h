// Append-only storage for the trusted logger's serialized records.
//
// Records live in page-aligned anonymous mappings, not on the heap: fixed
// 4 MiB chunks filled in order, and a record larger than a chunk in a
// mapping of its own. No record straddles two mappings, so each is one
// contiguous view. The destructor unmaps every mapping, which returns the
// pages to the kernel whichever thread appended the records. Heap records
// appended on a reactor loop would stay resident in that thread's malloc
// arena after the logger is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace adlp::proto {

class RecordStore {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{4} << 20;

  RecordStore() = default;
  ~RecordStore();
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Copies `record` in as the next record. Throws std::bad_alloc when a
  /// mapping cannot be made.
  void Append(BytesView record);

  std::size_t Size() const { return records_.size(); }

  /// Record `index` (< Size()); valid until the store is destroyed.
  BytesView operator[](std::size_t index) const { return records_[index]; }

  /// Writable record `index` (< Size()), for tamper-evidence tests.
  std::span<std::uint8_t> MutableRecordForTest(std::size_t index) {
    return records_[index];
  }

 private:
  struct Mapping {
    std::uint8_t* base;
    std::size_t bytes;
  };
  std::uint8_t* Map(std::size_t bytes);

  std::vector<Mapping> mappings_;
  std::uint8_t* chunk_ = nullptr;  // chunk being filled (null before the first)
  std::size_t chunk_used_ = 0;
  std::vector<std::span<std::uint8_t>> records_;
};

}  // namespace adlp::proto
