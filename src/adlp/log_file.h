// File-backed log persistence.
//
// The trusted logger serializes entries "on the network and the disk" with
// the same record format (the prototype used protocol buffers for both).
// This module writes the logger's records to an append-only file —
// length-framed, ending with a Merkle-root trailer — and reads them back for
// offline, third-party audit: exactly the "independent investigator"
// workflow the paper motivates (an NTSB-style examiner receives the log
// file, the key registry, and the topology manifest, and re-runs the
// audit).
//
// File layout:
//   [frame: "ADLPLOG1" magic record]
//   [frame: record 0] [frame: record 1] ...
//   [frame: trailer = "ROOT" || RFC 6962 Merkle root of the records (32 B)]
//   [frame: "EPOC" || serialized EpochRoot] ...        (optional)
//
// The Merkle root makes the file self-checking: any modification of a
// record, reordering, truncation before the trailer, or insertion is
// detected on load. The sealed epoch roots after the trailer are signed
// and hash-linked, so they need no coverage by the trailer; checking them
// against the records is the replica cross-checker's job
// (audit/replica_check.h).
#pragma once

#include <string>
#include <vector>

#include "adlp/log_entry.h"
#include "adlp/log_server.h"
#include "common/bytes.h"

namespace adlp::proto {

/// Writes the server's records, their Merkle root and its sealed epoch
/// roots to `path`. Throws std::system_error on I/O failure.
void WriteLogFile(const std::string& path, const LogServer& server);

/// Writes raw serialized records (in log order) under the Merkle root
/// claimed for them.
void WriteLogRecords(const std::string& path,
                     const std::vector<Bytes>& records,
                     const crypto::Digest& root,
                     const std::vector<EpochRoot>& epoch_roots = {});

struct LoadedLog {
  std::vector<LogEntry> entries;
  std::vector<Bytes> records;
  /// The Merkle root the trailer claims for `records`.
  crypto::Digest root{};
  /// True iff the Merkle root over `records` equals `root` — i.e. the file
  /// holds exactly the records the logger wrote.
  bool verified = false;
  /// Records that no longer parse as log entries (tampering artifacts).
  std::size_t malformed_records = 0;
  /// Sealed epoch roots, in epoch order (empty when nothing was sealed).
  /// Signature/chain validity is the replica cross-checker's job, except
  /// that an EPOC frame which does not parse at all is structural
  /// corruption and throws like any other framing damage.
  std::vector<EpochRoot> epoch_roots;
};

/// Loads and verifies a log file. Throws std::runtime_error on structural
/// corruption (bad magic, truncated frame, missing trailer — which is also
/// how a file in an older trailer format fails); a *content* modification
/// loads fine but reports verified == false.
LoadedLog ReadLogFile(const std::string& path);

}  // namespace adlp::proto
