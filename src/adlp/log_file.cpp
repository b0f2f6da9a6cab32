#include "adlp/log_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "wire/wire.h"

namespace adlp::proto {

namespace {

constexpr char kMagic[] = "ADLPLOG1";
constexpr char kTrailerTag[] = "ROOT";
constexpr char kEpochTag[] = "EPOC";

bool HasTag(const Bytes& frame, const char* tag) {
  return frame.size() >= 4 && StringOf(BytesView(frame.data(), 4)) == tag;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void WriteFrame(std::FILE* f, BytesView payload) {
  const Bytes frame = wire::FramePayload(payload);
  if (std::fwrite(frame.data(), 1, frame.size(), f) != frame.size()) {
    throw std::system_error(errno, std::generic_category(),
                            "log file: write failed");
  }
}

/// Reads one frame; returns false on clean EOF before the preamble. `left`
/// counts the bytes not yet read from the file: a frame claiming more than
/// that is rejected before anything is allocated for it.
bool ReadFrame(std::FILE* f, std::uint64_t& left, Bytes& payload) {
  std::uint8_t preamble[wire::kFramePreambleSize];
  const std::size_t got = std::fread(preamble, 1, sizeof(preamble), f);
  if (got == 0 && std::feof(f)) return false;
  if (got != sizeof(preamble)) {
    throw std::runtime_error("log file: truncated frame preamble");
  }
  left -= std::min<std::uint64_t>(left, got);
  const std::uint32_t len =
      wire::ParseFrameLength(BytesView(preamble, sizeof(preamble)));
  if (len > left) {
    throw std::runtime_error("log file: truncated frame payload");
  }
  payload.resize(len);
  if (len > 0 && std::fread(payload.data(), 1, len, f) != len) {
    throw std::runtime_error("log file: truncated frame payload");
  }
  left -= len;
  return true;
}

bool IsTrailer(const Bytes& frame) {
  return frame.size() == 4 + crypto::kSha256DigestSize &&
         HasTag(frame, kTrailerTag);
}

}  // namespace

void WriteLogRecords(const std::string& path,
                     const std::vector<Bytes>& records,
                     const crypto::Digest& root,
                     const std::vector<EpochRoot>& epoch_roots) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    throw std::system_error(errno, std::generic_category(),
                            "log file: cannot open for writing: " + path);
  }
  WriteFrame(f.get(), BytesOf(kMagic));
  for (const auto& record : records) WriteFrame(f.get(), record);

  Bytes trailer = BytesOf(kTrailerTag);
  Append(trailer, BytesView(root.data(), root.size()));
  WriteFrame(f.get(), trailer);

  for (const auto& root : epoch_roots) {
    Bytes frame = BytesOf(kEpochTag);
    Append(frame, SerializeEpochRoot(root));
    WriteFrame(f.get(), frame);
  }

  if (std::fflush(f.get()) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "log file: flush failed");
  }
}

void WriteLogFile(const std::string& path, const LogServer& server) {
  const std::vector<Bytes> records = server.SerializedRecords();
  // The root at exactly the snapshot's size, so an append racing the export
  // cannot leave the file claiming a root over records it does not hold.
  WriteLogRecords(path, records, *server.MerkleRootAt(records.size()),
                  server.EpochRoots());
}

LoadedLog ReadLogFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    throw std::system_error(errno, std::generic_category(),
                            "log file: cannot open: " + path);
  }
  std::fseek(f.get(), 0, SEEK_END);
  std::uint64_t left =
      static_cast<std::uint64_t>(std::max(0L, std::ftell(f.get())));
  std::rewind(f.get());

  Bytes frame;
  if (!ReadFrame(f.get(), left, frame) || StringOf(frame) != kMagic) {
    throw std::runtime_error("log file: bad magic");
  }

  // One pass: records up to the trailer, each hashed into the tree as it is
  // read, then epoch frames only. A record never looks like the trailer (it
  // starts with its scheme field's tag), so the first trailer-shaped frame
  // ends the records; a tampered record that does is followed by the real
  // trailer, which is not an epoch frame, and the file is rejected.
  LoadedLog out;
  crypto::MerkleTree tree;
  bool trailer_seen = false;
  while (ReadFrame(f.get(), left, frame)) {
    if (!trailer_seen && IsTrailer(frame)) {
      std::copy(frame.begin() + 4, frame.end(), out.root.begin());
      trailer_seen = true;
    } else if (!trailer_seen) {
      tree.Append(frame);
      out.records.push_back(std::move(frame));
    } else if (HasTag(frame, kEpochTag)) {
      try {
        out.epoch_roots.push_back(
            ParseEpochRoot(BytesView(frame.data() + 4, frame.size() - 4)));
      } catch (const wire::WireError& e) {
        throw std::runtime_error(std::string("log file: bad epoch frame: ") +
                                 e.what());
      }
    } else {
      throw std::runtime_error("log file: unexpected frame after the trailer");
    }
  }
  if (!trailer_seen) {
    throw std::runtime_error("log file: missing Merkle-root trailer");
  }
  out.verified = tree.Root() == out.root;

  out.entries.reserve(out.records.size());
  for (const auto& record : out.records) {
    // A tampered record may no longer parse; evidence handling must not
    // crash on it (the root mismatch already tells the investigator the
    // file was modified).
    try {
      out.entries.push_back(DeserializeLogEntry(record));
    } catch (const wire::WireError&) {
      ++out.malformed_records;
    }
  }
  return out;
}

}  // namespace adlp::proto
