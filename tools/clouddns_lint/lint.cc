// clouddns_lint: structural analyzer for the clouddns source tree.
//
// The scenario engine promises byte-identical output for any thread count
// (DESIGN.md §7), the analytics layer promises stable report ordering,
// and the PR-4 buffer pools promise that borrowed views never outlive
// their call (DESIGN.md §11). Those contracts die silently; this tool
// makes them mechanical. Three passes run over every file the build
// compiles (discovered through compile_commands.json, headers reached
// via quoted includes):
//
//   text rules      per-line determinism rules — no-rand, wall-clock,
//                   unordered-iter, raw-thread, float-accumulator,
//                   seed-plumbing, fault-rng, hot-alloc (see
//                   text_rules.h for the catalogue).
//   include graph   module edges checked against the declared layering
//                   DAG in tools/clouddns_lint/layers.txt
//                   (layer-inversion), plus file-level cycle rejection
//                   (include-cycle). Diagnostics carry the shortest
//                   offending path.
//   escape pass     borrowed std::span/std::string_view lifetime rules
//                   over the pooled-scratch and zone-image modules
//                   (borrow-member, borrow-return, lambda-borrow; see
//                   escape.h).
//
// Suppression: `// lint:allow(<rule>): <reason>` on the offending line,
// or on a comment line directly above it. The reason is mandatory
// (bad-suppression otherwise), and an allow whose governed line no
// longer triggers its rule is itself flagged (unused-suppression) so
// waivers cannot outlive the code they excused.
//
// Exit status is non-zero when any unsuppressed violation exists. The
// last stderr line summarizes the run (files, rules, violations,
// suppressed, wall seconds); `--sarif <path>` writes a deterministic
// SARIF 2.1.0 report for CI upload.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "compdb.h"
#include "escape.h"
#include "include_graph.h"
#include "report.h"
#include "sarif.h"
#include "source.h"
#include "text_rules.h"

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

int Usage() {
  std::fprintf(stderr,
               "usage: clouddns_lint [--compdb <compile_commands.json>] "
               "[--src-root <dir>] [--layers <layers.txt>] "
               "[--sarif <out.sarif>] [<root>...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  std::string sarif_path;
  std::string compdb_path;
  std::string src_root;
  std::string layers_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--compdb" && i + 1 < argc) {
      compdb_path = argv[++i];
    } else if (arg == "--src-root" && i + 1 < argc) {
      src_root = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "clouddns_lint: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      roots.push_back(std::move(arg));
    }
  }
  if (roots.empty() && compdb_path.empty()) {
    std::fprintf(stderr, "clouddns_lint: no roots and no --compdb given\n");
    return Usage();
  }
  if (!compdb_path.empty() && src_root.empty()) {
    std::fprintf(stderr, "clouddns_lint: --compdb requires --src-root\n");
    return Usage();
  }

  std::string error;
  std::set<std::string> paths;
  if (!compdb_path.empty()) {
    auto from_compdb = lint::FilesFromCompdb(compdb_path, src_root, &error);
    if (!from_compdb) {
      std::fprintf(stderr, "clouddns_lint: %s\n", error.c_str());
      return 2;
    }
    paths.insert(from_compdb->begin(), from_compdb->end());
  }
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      paths.insert(root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        paths.insert(it->path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "clouddns_lint: cannot walk %s: %s\n", root.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  const lint::LayerSpec* layers = nullptr;
  std::optional<lint::LayerSpec> loaded_layers;
  if (!layers_path.empty()) {
    loaded_layers = lint::LayerSpec::Load(layers_path, &error);
    if (!loaded_layers) {
      std::fprintf(stderr, "clouddns_lint: %s\n", error.c_str());
      return 2;
    }
    layers = &*loaded_layers;
  }

  const std::string generic_root =
      src_root.empty() ? std::string() : fs::path(src_root).generic_string();
  std::vector<lint::SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    lint::SourceFile file;
    if (!lint::LoadSourceFile(path, generic_root, file)) {
      std::fprintf(stderr, "clouddns_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    files.push_back(std::move(file));
  }

  lint::Reporter reporter;
  for (lint::SourceFile& file : files) {
    lint::RunTextRules(file, reporter);
    lint::RunEscapePass(file, reporter);
  }
  lint::RunIncludeGraphPass(files, layers, reporter);

  std::set<std::string> active_rules;
  for (const lint::RuleInfo& rule : lint::kRules) {
    active_rules.insert(rule.id);
  }
  if (layers == nullptr) active_rules.erase("layer-inversion");
  reporter.FinalizeSuppressions(files, active_rules);
  reporter.Sort();

  for (const lint::Violation& v : reporter.violations()) {
    std::fprintf(stderr, "%s:%zu: error: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::fprintf(stderr,
               "clouddns_lint: %zu files, %zu rules, %zu violation(s), "
               "%zu suppressed, %.3fs\n",
               files.size(), std::size(lint::kRules),
               reporter.violations().size(), reporter.suppressed(), wall);

  if (!sarif_path.empty()) {
    // Repo-relative URIs: strip the src root's parent so results read
    // "src/zone/zone.h" regardless of where the checkout lives.
    std::string uri_base;
    if (!generic_root.empty()) {
      uri_base = fs::path(generic_root).parent_path().generic_string();
    }
    if (!lint::WriteSarif(sarif_path, reporter.violations(), uri_base)) {
      std::fprintf(stderr, "clouddns_lint: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
  }
  return reporter.violations().empty() ? 0 : 1;
}
