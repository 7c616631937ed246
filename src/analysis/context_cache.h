// The `.ctx` artifact of a dataset (analysis/dataset_cache.h names its
// file): the non-capture half of a ScenarioResult.
//
// Everything in a ScenarioResult but the capture and the run totals (the
// window, zone counts, server table, AS database, Google's public ranges
// and PTR records) is a function of the config, so the sidecar stores only
// the dataset's config and its run totals: client queries issued, leaf
// queries, per-provider queries and the robustness counters. The config
// lines are the fields cloud::ForEachIdentifyingField lists, under its
// names and in its order. A warm load parses those and rebuilds the rest
// with cloud::BuildScenarioContext(), which builds no zone, network,
// server or resolver engine, so the load is still a pure read: no
// simulation at all. The load hands the stored config back, and
// ReadDataset() rejects a sidecar whose config names another dataset.
//
// The payload is a version-tagged text file of "<key> <value>" lines; a
// different version or any malformed line fails cleanly, and the dataset
// cache rebuilds the whole dataset (which re-writes the sidecar).
//
// On disk the text payload rides inside the base::io checksummed frame
// (tag kTagContext) and is landed with write-to-temp + fsync + atomic
// rename; an unframed file is rejected like any other corruption.
#pragma once

#include <string>

#include "base/io.h"
#include "cloud/scenario.h"

namespace clouddns::analysis {

/// Writes `result.config` (every field but `threads`) and the run totals to
/// `path`, framed and atomically renamed into place.
[[nodiscard]] base::io::IoStatus SaveScenarioContextStatus(
    const std::string& path, const cloud::ScenarioResult& result);

/// Restores the stored config and run totals into `result` and rebuilds
/// the other context fields from that config, leaving `records` and
/// `storage` untouched. The stored config has `threads` 0. kNotFound when
/// missing; a corruption code when the frame or the text payload is
/// damaged, version-mismatched or holds a config AcceptedConfig() refuses.
/// On failure `result` is untouched.
[[nodiscard]] base::io::IoStatus LoadScenarioContextStatus(
    const std::string& path, cloud::ScenarioResult& result);

/// Whether a config read from a file is one BuildScenarioContext can take:
/// enums in range, a year of the study (2018-2020), and scales that are
/// finite, not negative and (zone_scale) not above the paper's zones.
[[nodiscard]] bool AcceptedConfig(const cloud::ScenarioConfig& config);

}  // namespace clouddns::analysis
