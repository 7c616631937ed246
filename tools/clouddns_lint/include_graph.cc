#include "include_graph.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <fstream>
#include <sstream>

namespace lint {
namespace {

struct IncludeEdge {
  std::size_t line = 0;  ///< 1-based line of the #include.
  std::string target;    ///< Quoted include text ("zone/zone.h").
};

/// Quoted includes of one file, parsed from the raw lines (the code lines
/// have string contents blanked, which would erase the include path).
std::vector<IncludeEdge> QuotedIncludes(const SourceFile& file) {
  std::vector<IncludeEdge> edges;
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    std::size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') continue;
    pos = line.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos || line.compare(pos, 7, "include") != 0) {
      continue;
    }
    pos = line.find_first_not_of(" \t", pos + 7);
    if (pos == std::string::npos || line[pos] != '"') continue;
    std::size_t close = line.find('"', pos + 1);
    if (close == std::string::npos) continue;
    edges.push_back(IncludeEdge{i + 1, line.substr(pos + 1, close - pos - 1)});
  }
  return edges;
}

std::string ModuleOfInclude(const std::string& target) {
  std::size_t slash = target.find('/');
  return slash == std::string::npos ? std::string() : target.substr(0, slash);
}

std::string JoinPath(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& hop : path) {
    if (!out.empty()) out += " -> ";
    out += hop;
  }
  return out;
}

/// Shortest dependency path from `from` to `to` in the declared DAG
/// (edges module -> its allowed deps), inclusive; empty if unreachable.
std::vector<std::string> DeclaredPath(const LayerSpec& layers,
                                      const std::string& from,
                                      const std::string& to) {
  std::map<std::string, std::string> parent;
  std::deque<std::string> queue{from};
  parent[from] = from;
  while (!queue.empty()) {
    std::string node = queue.front();
    queue.pop_front();
    if (node == to) {
      std::vector<std::string> path{to};
      while (path.back() != from) path.push_back(parent[path.back()]);
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto it = layers.allowed.find(node);
    if (it == layers.allowed.end()) continue;
    for (const std::string& dep : it->second) {
      if (parent.emplace(dep, node).second) queue.push_back(dep);
    }
  }
  return {};
}

void CheckLayering(std::vector<SourceFile>& files, const LayerSpec& layers,
                   const std::set<std::string>& tree_modules,
                   Reporter& reporter) {
  for (SourceFile& file : files) {
    if (file.module.empty()) continue;
    for (const IncludeEdge& edge : QuotedIncludes(file)) {
      const std::string target = ModuleOfInclude(edge.target);
      if (target.empty() || target == file.module) continue;
      const bool known = layers.allowed.count(target) != 0 ||
                         tree_modules.count(target) != 0;
      if (!known) continue;  // external quoted include, not a src module
      if (layers.allowed.count(file.module) == 0) {
        reporter.Report(file, edge.line, "layer-inversion",
                        "module `" + file.module +
                            "` is not declared in layers.txt; every src/ "
                            "module must state its allowed dependencies");
        continue;
      }
      if (layers.allowed.count(target) == 0) {
        reporter.Report(file, edge.line, "layer-inversion",
                        "included module `" + target +
                            "` is not declared in layers.txt; declare it "
                            "before depending on it");
        continue;
      }
      if (layers.allowed.at(file.module).count(target) != 0) continue;
      std::vector<std::string> reverse_path =
          DeclaredPath(layers, target, file.module);
      std::string message = "include of \"" + edge.target + "\" makes `" +
                            file.module + "` depend on `" + target + "`, ";
      if (!reverse_path.empty()) {
        message += "inverting the declared layering (layers.txt has " +
                   JoinPath(reverse_path) +
                   "); depend downward or move the shared piece into a "
                   "lower module";
      } else {
        message += "an edge layers.txt does not declare; add `" + target +
                   "` to the `" + file.module +
                   ":` line if the dependency is intended";
      }
      reporter.Report(file, edge.line, "layer-inversion", message);
    }
  }
}

void CheckCycles(std::vector<SourceFile>& files, Reporter& reporter) {
  // File-level graph over the scanned set, nodes keyed by rel path.
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!files[i].rel.empty()) index_of.emplace(files[i].rel, i);
  }
  struct FileEdge {
    std::size_t from, to, line;
  };
  std::vector<FileEdge> edges;
  std::vector<std::vector<std::size_t>> adjacent(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const IncludeEdge& edge : QuotedIncludes(files[i])) {
      auto it = index_of.find(edge.target);
      if (it == index_of.end() || it->second == i) continue;
      edges.push_back(FileEdge{i, it->second, edge.line});
      adjacent[i].push_back(it->second);
    }
  }

  // For each edge u -> v participating in a cycle (v reaches u), report
  // at the offending #include with the shortest cycle through that edge.
  auto shortest_path = [&](std::size_t from,
                           std::size_t to) -> std::vector<std::size_t> {
    std::vector<std::size_t> parent(files.size(), files.size());
    std::deque<std::size_t> queue{from};
    parent[from] = from;
    while (!queue.empty()) {
      std::size_t node = queue.front();
      queue.pop_front();
      if (node == to) {
        std::vector<std::size_t> path{to};
        while (path.back() != from) path.push_back(parent[path.back()]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      for (std::size_t next : adjacent[node]) {
        if (parent[next] == files.size()) {
          parent[next] = node;
          queue.push_back(next);
        }
      }
    }
    return {};
  };
  for (const FileEdge& edge : edges) {
    std::vector<std::size_t> back = shortest_path(edge.to, edge.from);
    if (back.empty()) continue;
    std::vector<std::string> cycle{files[edge.from].rel};
    for (std::size_t node : back) cycle.push_back(files[node].rel);
    cycle.push_back(files[edge.from].rel);
    reporter.Report(files[edge.from], edge.line, "include-cycle",
                    "cyclic include chain: " + JoinPath(cycle) +
                        "; break the cycle with a forward declaration or by "
                        "splitting the shared type out");
  }
}

}  // namespace

std::optional<LayerSpec> LayerSpec::Load(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  LayerSpec spec;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string module;
    if (!(tokens >> module)) continue;
    if (module.back() != ':') {
      *error = path + ":" + std::to_string(line_no) +
               ": expected `module: deps...`, got `" + module + "`";
      return std::nullopt;
    }
    module.pop_back();
    if (!spec.allowed.emplace(module, std::set<std::string>{}).second) {
      *error = path + ":" + std::to_string(line_no) + ": module `" + module +
               "` declared twice";
      return std::nullopt;
    }
    spec.order.push_back(module);
    std::string dep;
    while (tokens >> dep) spec.allowed[module].insert(dep);
  }
  // Every dep must itself be declared, and a module declared before its
  // deps would make the file unreadable as a bottom-up layering — both
  // checks together guarantee the declared graph is a DAG.
  std::set<std::string> seen;
  for (const std::string& module : spec.order) {
    for (const std::string& dep : spec.allowed.at(module)) {
      if (spec.allowed.count(dep) == 0) {
        *error = path + ": module `" + module + "` depends on undeclared `" +
                 dep + "`";
        return std::nullopt;
      }
      if (seen.count(dep) == 0) {
        *error = path + ": module `" + module + "` depends on `" + dep +
                 "`, which is declared later — order layers.txt bottom-up";
        return std::nullopt;
      }
    }
    seen.insert(module);
  }
  return spec;
}

void RunIncludeGraphPass(std::vector<SourceFile>& files,
                         const LayerSpec* layers, Reporter& reporter) {
  std::set<std::string> tree_modules;
  for (const SourceFile& file : files) {
    if (!file.module.empty()) tree_modules.insert(file.module);
  }
  if (layers != nullptr) {
    CheckLayering(files, *layers, tree_modules, reporter);
  }
  CheckCycles(files, reporter);
}

}  // namespace lint
