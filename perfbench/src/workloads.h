// The benchmark's three workloads. Each builds its deployment from the
// seed, measures for `seconds`, checks its outputs, and fills a RunResult
// with every metric it has (end-to-end ones always, layer ones when
// `traced`).
#pragma once

#include "common.h"

namespace perfbench {

/// Set-up is repeated this many times per run, split between the gaps
/// before, between and after the timed parts; setup_s is the median. On a
/// shared host the speed of one thread moves in phases of a second or more
/// (image_20hz's set-up is mostly RSA key generation), so the repetitions
/// span the whole run rather than one phase.
inline constexpr int kSetupReps = 40;

RunResult RunImage20Hz(const RunConfig& config, double seconds, bool traced);
RunResult RunSteeringRepl3(const RunConfig& config, double seconds,
                           bool traced);
RunResult RunForensicAudit(const RunConfig& config, double seconds,
                           bool traced);

}  // namespace perfbench
