// Sidecar persistence for the non-capture half of a ScenarioResult.
//
// A dataset-cache hit used to re-run the whole scenario with zero client
// queries just to rebuild deterministic context — zones, the AS database,
// PTR records — which cost ~0.6s per dataset and dominated every warm
// bench. The sidecar stores that context (everything in ScenarioResult
// except `records` and `config`) next to the capture file, so a warm load
// is a pure read: capture + context, no simulation at all.
//
// The format is a version-tagged text file; loading a file with a
// different version or any malformed section fails cleanly, and the
// dataset cache rebuilds the whole dataset (which re-writes the sidecar).
//
// On disk the text payload rides inside the base::io checksummed frame
// (tag kTagContext) and is landed with write-to-temp + fsync + atomic
// rename; an unframed file is rejected like any other corruption.
#pragma once

#include <string>

#include "base/io.h"
#include "cloud/scenario.h"

namespace clouddns::analysis {

/// Writes everything but `records`/`config` to `path`, framed and
/// atomically renamed into place.
[[nodiscard]] base::io::IoStatus SaveScenarioContextStatus(
    const std::string& path, const cloud::ScenarioResult& result);

/// Restores the context fields into `result`, leaving `records` and
/// `config` untouched. kNotFound when missing; a corruption code when the
/// frame or the text payload is damaged or version-mismatched.
[[nodiscard]] base::io::IoStatus LoadScenarioContextStatus(
    const std::string& path, cloud::ScenarioResult& result);

}  // namespace clouddns::analysis
