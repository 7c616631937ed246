// Include-graph structural pass: extracts the `#include "mod/..."` edges
// of every scanned file, checks module-level edges against the declared
// layering DAG (tools/clouddns_lint/layers.txt), and rejects file-level
// include cycles. Diagnostics carry the shortest offending path so a
// layering break reads as an architecture statement, not a line number.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "source.h"

namespace lint {

/// The declared module DAG: `module: dep dep ...` lines, `#` comments.
/// A module may directly include only its declared deps (transitive deps
/// must be declared explicitly — the declaration is the architecture).
struct LayerSpec {
  std::vector<std::string> order;  ///< Declaration order (bottom-up).
  std::map<std::string, std::set<std::string>> allowed;

  /// Parses and validates (all deps declared, graph acyclic). Returns
  /// nullopt with a human-readable *error on failure.
  static std::optional<LayerSpec> Load(const std::string& path,
                                       std::string* error);
};

/// Runs both include passes over the whole file set. `layers` may be
/// null, in which case only cycle detection runs (the layering rule is
/// then inactive for stale-suppression accounting).
void RunIncludeGraphPass(std::vector<SourceFile>& files,
                         const LayerSpec* layers, Reporter& reporter);

}  // namespace lint
