#include "zone/master_file.h"

#include <algorithm>
#include <cctype>
#include <span>

namespace clouddns::zone {
namespace {

// ---------- tokenization ----------

// One logical record line: parentheses join physical lines, ';' starts a
// comment, quoted strings keep their spaces.
struct LogicalLine {
  std::size_t line_number = 0;
  std::vector<std::string> tokens;
  bool starts_with_whitespace = false;  ///< Owner inherited from previous.
};

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  /// Splits the input into logical lines honouring (), ;, and "".
  std::vector<LogicalLine> Run(std::vector<MasterFileError>& errors) {
    std::vector<LogicalLine> lines;
    LogicalLine current;
    bool in_line = false;
    int paren_depth = 0;

    while (pos_ < text_.size()) {
      if (!in_line) {
        current = LogicalLine{};
        current.line_number = line_;
        current.starts_with_whitespace =
            pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t');
        in_line = true;
      }
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        if (paren_depth == 0) {
          if (!current.tokens.empty()) lines.push_back(std::move(current));
          in_line = false;
        }
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {  // '\n' is above
        ++pos_;
        continue;
      }
      if (c == ';') {  // comment to end of physical line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '(') {
        ++paren_depth;
        ++pos_;
        continue;
      }
      if (c == ')') {
        if (paren_depth == 0) {
          errors.push_back({line_, "unbalanced ')'"});
        } else {
          --paren_depth;
        }
        ++pos_;
        continue;
      }
      if (c == '"') {
        std::string token;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\n') {
          // An escaped character never ends the string; the token keeps
          // the escape for the RDATA field to decode.
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size() &&
              text_[pos_ + 1] != '\n') {
            token += text_[pos_++];
          }
          token += text_[pos_++];
        }
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          errors.push_back({line_, "unterminated quoted string"});
        } else {
          ++pos_;
        }
        current.tokens.push_back(std::move(token));
        continue;
      }
      // A quote ends a bare token too, so no token holds one and a TXT
      // string always renders back to the same tokens.
      std::string token;
      while (pos_ < text_.size() && !std::isspace(
                 static_cast<unsigned char>(text_[pos_])) &&
             text_[pos_] != ';' && text_[pos_] != '(' && text_[pos_] != ')' &&
             text_[pos_] != '"') {
        token += text_[pos_++];
      }
      current.tokens.push_back(std::move(token));
    }
    if (paren_depth != 0) errors.push_back({line_, "unbalanced '('"});
    if (in_line && !current.tokens.empty()) lines.push_back(std::move(current));
    return lines;
  }

 private:
  // lint:allow(borrow-member): a Tokenizer is a local of ParseMasterFile and dies before the text it scans
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

/// The record types a master file carries, for reader and writer alike.
/// RRSIG and NSEC are derived by the signer and never written.
constexpr dns::RrType kMasterFileTypes[] = {
    dns::RrType::kA,   dns::RrType::kAaaa,  dns::RrType::kNs,
    dns::RrType::kCname, dns::RrType::kPtr, dns::RrType::kMx,
    dns::RrType::kTxt, dns::RrType::kSrv,   dns::RrType::kSoa,
    dns::RrType::kDs,  dns::RrType::kDnskey};

bool IsMasterFileType(dns::RrType type) {
  return std::ranges::find(kMasterFileTypes, type) !=
         std::end(kMasterFileTypes);
}

}  // namespace

ParsedZone ParseMasterFile(std::string_view text,
                           const dns::Name& default_origin) {
  ParsedZone result;
  Tokenizer tokenizer(text);
  auto lines = tokenizer.Run(result.errors);

  dns::Name origin = default_origin;
  std::uint32_t default_ttl = 3600;
  std::optional<dns::Name> last_owner;
  std::vector<dns::ResourceRecord> records;
  std::optional<dns::Name> apex;

  for (const auto& line : lines) {
    const auto& tokens = line.tokens;
    auto fail = [&result, &line](std::string message) {
      result.errors.push_back({line.line_number, std::move(message)});
    };

    // Directives.
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) {
        fail("$ORIGIN needs one argument");
        continue;
      }
      auto parsed = dns::Name::Parse(tokens[1]);
      if (!parsed) {
        fail("bad $ORIGIN name");
        continue;
      }
      origin = *parsed;
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) {
        fail("$TTL needs one argument");
        continue;
      }
      auto ttl = dns::ParseTtl(tokens[1]);
      if (!ttl) {
        fail("bad $TTL value");
        continue;
      }
      default_ttl = *ttl;
      continue;
    }
    if (tokens[0].starts_with("$")) {
      fail("unknown directive " + tokens[0]);
      continue;
    }

    // <owner>? <ttl>? <class>? <type> <rdata...>
    std::size_t cursor = 0;
    dns::Name owner;
    if (line.starts_with_whitespace) {
      if (!last_owner) {
        fail("record with inherited owner but no previous owner");
        continue;
      }
      owner = *last_owner;
    } else {
      auto parsed = dns::ParseNameField(tokens[cursor], origin);
      if (!parsed) {
        fail("bad owner name '" + tokens[cursor] + "'");
        continue;
      }
      owner = *parsed;
      ++cursor;
    }

    std::optional<std::uint32_t> ttl = default_ttl;
    // Optional TTL and class in either order. No type name starts with a
    // digit, so a token that does is a TTL.
    for (int i = 0; i < 2 && ttl && cursor < tokens.size(); ++i) {
      const std::string& text = tokens[cursor];
      if (text == "IN" || text == "in") {
        ++cursor;
      } else if (!text.empty() &&
                 std::isdigit(static_cast<unsigned char>(text.front()))) {
        ttl = dns::ParseTtl(text);
        if (ttl) ++cursor;
      }
    }
    if (!ttl) {
      fail("bad TTL '" + tokens[cursor] + "'");
      continue;
    }
    if (cursor >= tokens.size()) {
      fail("missing record type");
      continue;
    }
    auto type = dns::RrTypeFromString(tokens[cursor]);
    if (!type) {
      fail("unknown record type '" + tokens[cursor] + "'");
      continue;
    }
    ++cursor;
    if (!IsMasterFileType(*type)) {
      fail("unsupported record type in master file");
      continue;
    }

    std::string error;
    auto rdata = dns::ParseRdata(
        *type, std::span(tokens).subspan(cursor), origin, error);
    if (!rdata) {
      fail(std::move(error));
      continue;
    }
    if (*type == dns::RrType::kSoa) {
      if (apex) {
        fail("duplicate SOA");
        continue;
      }
      apex = owner;
    }
    records.push_back(dns::ResourceRecord{owner, *type, dns::RrClass::kIn,
                                          *ttl, std::move(*rdata)});
    last_owner = owner;
  }

  if (!apex) {
    result.errors.push_back({0, "zone has no SOA record"});
    return result;
  }
  Zone zone(*apex);
  bool fatal = false;
  for (auto& record : records) {
    if (!record.name.IsSubdomainOf(*apex)) {
      result.errors.push_back(
          {0, "record " + record.name.ToString() + " outside zone " +
                  apex->ToString()});
      fatal = true;
      continue;
    }
    zone.Add(std::move(record));
  }
  if (!fatal) {
    zone.Freeze();
    result.zone = std::move(zone);
  }
  return result;
}

std::string ToMasterFile(const Zone& zone) {
  std::string out = "$ORIGIN " + dns::AbsoluteName(zone.apex()) + "\n";
  auto render = [&out](const dns::ResourceRecord& rr) {
    if (IsMasterFileType(rr.type)) out += rr.ToString() + "\n";
  };
  // Canonical owner order puts the apex first; SOA leads its records.
  for (const Zone::Owner& owner : zone.Owners()) {
    for (const auto& record : owner.records) {
      if (record.type == dns::RrType::kSoa) render(record);
    }
    for (const auto& record : owner.records) {
      if (record.type != dns::RrType::kSoa) render(record);
    }
  }
  return out;
}

}  // namespace clouddns::zone
