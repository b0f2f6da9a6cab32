#include "adlp/record_store.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace adlp::proto {

RecordStore::~RecordStore() {
  for (const Mapping& m : mappings_) munmap(m.base, m.bytes);
}

std::uint8_t* RecordStore::Map(std::size_t bytes) {
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  try {
    mappings_.push_back({static_cast<std::uint8_t*>(base), bytes});
  } catch (...) {
    munmap(base, bytes);
    throw;
  }
  return static_cast<std::uint8_t*>(base);
}

void RecordStore::Append(BytesView record) {
  std::uint8_t* dst = nullptr;
  if (record.size() > kChunkBytes) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    dst = Map((record.size() + page - 1) / page * page);
  } else if (!record.empty()) {
    if (chunk_ == nullptr || kChunkBytes - chunk_used_ < record.size()) {
      chunk_ = Map(kChunkBytes);
      chunk_used_ = 0;
    }
    dst = chunk_ + chunk_used_;
    chunk_used_ += record.size();
  }
  if (dst != nullptr) std::memcpy(dst, record.data(), record.size());
  records_.emplace_back(dst, record.size());
}

}  // namespace adlp::proto
