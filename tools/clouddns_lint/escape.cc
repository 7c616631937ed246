#include "escape.h"

#include <cctype>
#include <optional>
#include <vector>

namespace lint {
namespace {

std::size_t SkipWs(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

/// If `pos` starts a type token, returns the offset just past it (with a
/// balanced template argument list when one follows). Checks the left
/// identifier boundary; `tokens` must be ordered longest-first when one
/// is a prefix of another.
std::optional<std::size_t> TypeEnd(const std::string& text, std::size_t pos,
                                   const std::vector<const char*>& tokens) {
  if (pos > 0 && IsIdentChar(text[pos - 1])) return std::nullopt;
  for (const char* token : tokens) {
    const std::size_t len = std::char_traits<char>::length(token);
    if (text.compare(pos, len, token) != 0) continue;
    std::size_t end = pos + len;
    if (end < text.size() && IsIdentChar(text[end])) continue;
    std::size_t cursor = SkipWs(text, end);
    if (cursor < text.size() && text[cursor] == '<') {
      int depth = 0;
      while (cursor < text.size()) {
        if (text[cursor] == '<') ++depth;
        if (text[cursor] == '>') {
          --depth;
          if (depth == 0) return cursor + 1;
        }
        ++cursor;
      }
      return std::nullopt;  // unbalanced
    }
    return end;
  }
  return std::nullopt;
}

const std::vector<const char*>& ViewTypes() {
  static const std::vector<const char*> kTypes = {"std::string_view",
                                                  "std::span"};
  return kTypes;
}

/// Owning buffer types whose storage dies with their scope. string_view
/// never matches std::string here: the boundary check in TypeEnd rejects
/// the `_` that follows.
const std::vector<const char*>& OwningTypes() {
  static const std::vector<const char*> kTypes = {"std::vector", "std::string",
                                                  "std::array"};
  return kTypes;
}

struct ScopedName {
  std::string name;
  int depth = 0;
  bool view = false;  ///< declared as span/string_view (else owning)
};

/// After a type spelling: skip cv/ref noise and read the declared
/// identifier. References and pointers are rejected (they alias storage
/// owned elsewhere, which is exactly the safe case).
std::optional<std::string> DeclaredIdent(const std::string& text,
                                         std::size_t type_end) {
  std::size_t cursor = SkipWs(text, type_end);
  if (cursor < text.size() && (text[cursor] == '&' || text[cursor] == '*')) {
    return std::nullopt;
  }
  std::string ident;
  while (cursor < text.size() && IsIdentChar(text[cursor])) {
    ident += text[cursor++];
  }
  if (ident.empty()) return std::nullopt;
  cursor = SkipWs(text, cursor);
  if (cursor >= text.size()) return std::nullopt;
  // A declaration introduces the name and then ends, initializes, or (for
  // parameters) hits the separator/closer.
  char next = text[cursor];
  if (next == ';' || next == '=' || next == '{' || next == '(' ||
      next == ',' || next == ')' || next == '[') {
    return ident;
  }
  return std::nullopt;
}

std::vector<std::string> IdentsIn(const std::string& text) {
  std::vector<std::string> idents;
  std::string current;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    char c = i < text.size() ? text[i] : ' ';
    if (IsIdentChar(c)) {
      current += c;
    } else {
      if (!current.empty()) idents.push_back(current);
      current.clear();
    }
  }
  return idents;
}

class EscapeScanner {
 public:
  EscapeScanner(SourceFile& file, Reporter& reporter)
      : file_(file), reporter_(reporter), flat_(Flatten(file)) {}

  void Run() {
    const std::string& text = flat_.text;
    for (std::size_t i = 0; i < text.size(); ++i) {
      char c = text[i];
      if (c == '{') {
        ++depth_;
        continue;
      }
      if (c == '}') {
        --depth_;
        while (!scoped_.empty() && scoped_.back().depth > depth_) {
          scoped_.pop_back();
        }
        continue;
      }
      if (c == '[') {
        MaybeLambda(i);
        continue;
      }
      if (c == 'r' && WordAt(text, i, "return")) {
        MaybeBorrowReturn(i);
        continue;
      }
      if (c == 's') {
        MaybeDeclaration(i);
        continue;
      }
    }
  }

 private:
  /// Records view/owning declarations and flags view members.
  void MaybeDeclaration(std::size_t pos) {
    const std::string& text = flat_.text;
    bool view = true;
    auto type_end = TypeEnd(text, pos, ViewTypes());
    if (!type_end) {
      view = false;
      type_end = TypeEnd(text, pos, OwningTypes());
    }
    if (!type_end) return;
    auto ident = DeclaredIdent(text, *type_end);
    if (!ident) return;
    const bool member = ident->size() > 1 && ident->back() == '_';
    if (member) {
      if (view) {
        reporter_.Report(
            file_, flat_.LineAt(pos), "borrow-member",
            "member `" + *ident +
                "` holds a borrowed std::span/std::string_view; the view "
                "outlives the call that borrowed it — copy into owned "
                "storage, or carry a reasoned lint:allow(borrow-member) "
                "if the pointee provably outlives this object");
      }
      return;  // owning members are fine, and members are not locals
    }
    scoped_.push_back(ScopedName{*ident, depth_, view});
  }

  /// `return std::span(...)` / `return std::string_view{...}` over an
  /// in-scope owning local or by-value parameter.
  void MaybeBorrowReturn(std::size_t pos) {
    const std::string& text = flat_.text;
    std::size_t cursor = SkipWs(text, pos + 6);
    auto type_end = TypeEnd(text, cursor, ViewTypes());
    if (!type_end) return;
    std::size_t open = SkipWs(text, *type_end);
    if (open >= text.size() || (text[open] != '(' && text[open] != '{')) {
      return;
    }
    const char close = text[open] == '(' ? ')' : '}';
    int depth = 0;
    std::size_t end = open;
    while (end < text.size()) {
      if (text[end] == text[open]) ++depth;
      if (text[end] == close) {
        --depth;
        if (depth == 0) break;
      }
      ++end;
    }
    if (end >= text.size()) return;
    for (const std::string& ident :
         IdentsIn(text.substr(open + 1, end - open - 1))) {
      for (const ScopedName& local : scoped_) {
        if (local.view || local.name != ident) continue;
        reporter_.Report(
            file_, flat_.LineAt(pos), "borrow-return",
            "returns a view over `" + ident +
                "`, a buffer that dies with this scope; return owned bytes "
                "or have the caller pass the buffer in");
        return;
      }
    }
  }

  /// A lambda that escapes its statement (returned, member-assigned, or
  /// stored in a std::function) while capturing borrowed state.
  void MaybeLambda(std::size_t pos) {
    const std::string& text = flat_.text;
    if (pos + 1 < text.size() && text[pos + 1] == '[') return;  // attribute
    if (pos > 0 && text[pos - 1] == '[') return;
    // Subscripts and array declarators follow a value or declarator.
    std::size_t before = pos;
    while (before > 0 && std::isspace(static_cast<unsigned char>(
                             text[before - 1]))) {
      --before;
    }
    if (before > 0) {
      char prev = text[before - 1];
      if (IsIdentChar(prev) || prev == ')' || prev == ']' || prev == '>') {
        return;
      }
    }
    // Capture list, tolerating nested brackets in init-captures.
    int depth = 0;
    std::size_t end = pos;
    while (end < text.size()) {
      if (text[end] == '[') ++depth;
      if (text[end] == ']') {
        --depth;
        if (depth == 0) break;
      }
      ++end;
    }
    if (end >= text.size()) return;
    std::size_t after = SkipWs(text, end + 1);
    if (after >= text.size() || (text[after] != '(' && text[after] != '{')) {
      return;  // not a lambda introducer
    }
    const std::string captures = text.substr(pos + 1, end - pos - 1);
    if (!CapturesBorrowed(captures)) return;
    if (!StatementEscapes(pos)) return;
    reporter_.Report(
        file_, flat_.LineAt(pos), "lambda-borrow",
        "escaping lambda captures borrowed scratch (`" + captures +
            "`); the capture outlives the call that owns the buffer — "
            "capture owned copies, or keep the lambda call-local");
  }

  [[nodiscard]] bool CapturesBorrowed(const std::string& captures) const {
    if (captures.find('&') != std::string::npos) return true;
    for (const std::string& ident : IdentsIn(captures)) {
      if (ident.find("scratch") != std::string::npos) return true;
      for (const ScopedName& local : scoped_) {
        if (local.view && local.name == ident) return true;
      }
    }
    return false;
  }

  /// Does the statement containing offset `pos` hand the lambda to an
  /// owner that outlives the call?
  [[nodiscard]] bool StatementEscapes(std::size_t pos) const {
    const std::string& text = flat_.text;
    std::size_t start = pos;
    while (start > 0 && text[start - 1] != ';' && text[start - 1] != '{' &&
           text[start - 1] != '}') {
      --start;
    }
    const std::string stmt = text.substr(start, pos - start);
    if (stmt.find("std::function") != std::string::npos) return true;
    std::size_t cursor = stmt.size();
    while (cursor > 0 &&
           std::isspace(static_cast<unsigned char>(stmt[cursor - 1]))) {
      --cursor;
    }
    if (cursor == 0) return false;
    // `return [...]`.
    if (cursor >= 6 && stmt.compare(cursor - 6, 6, "return") == 0 &&
        (cursor == 6 || !IsIdentChar(stmt[cursor - 7]))) {
      return true;
    }
    // `member_ = [...]` (plain assignment, not ==/<=/...).
    if (stmt[cursor - 1] != '=') return false;
    if (cursor >= 2 &&
        std::string("=!<>+-*/%&|^").find(stmt[cursor - 2]) !=
            std::string::npos) {
      return false;
    }
    std::size_t ident_end = cursor - 1;
    while (ident_end > 0 && std::isspace(static_cast<unsigned char>(
                                stmt[ident_end - 1]))) {
      --ident_end;
    }
    std::size_t ident_start = ident_end;
    while (ident_start > 0 && IsIdentChar(stmt[ident_start - 1])) {
      --ident_start;
    }
    return ident_end > ident_start && stmt[ident_end - 1] == '_';
  }

  SourceFile& file_;
  Reporter& reporter_;
  FlatSource flat_;
  int depth_ = 0;
  std::vector<ScopedName> scoped_;
};

}  // namespace

void RunEscapePass(SourceFile& file, Reporter& reporter) {
  const bool watched = file.module == "capture" || file.module == "net" ||
                       file.module == "resolver" || file.module == "zone" ||
                       file.module == "server";
  if (!watched) return;
  EscapeScanner(file, reporter).Run();
}

}  // namespace lint
