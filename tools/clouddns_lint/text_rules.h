// Per-line determinism rules (PR 2/3/4 contracts): forbidden generators,
// wall-clock reads, raw threads, float accumulators, invented seeds, and
// hot-path string allocation — plus the wrap-tolerant unordered-iteration
// rule for emit paths. Matching is plain token scanning: the former
// std::regex patterns were both the dominant lint cost and a per-call
// compile hazard, and none of the rules needs more than word-boundary
// lookups.
#pragma once

#include "report.h"
#include "source.h"

namespace lint {

void RunTextRules(SourceFile& file, Reporter& reporter);

}  // namespace lint
