#include "zone/master_file.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

namespace clouddns::zone {
namespace {

// ---------- tokenization ----------

// One logical record line: parentheses join physical lines, ';' starts a
// comment, quoted strings keep their spaces.
struct Token {
  std::string text;
  bool quoted = false;
};

struct LogicalLine {
  std::size_t line_number = 0;
  std::vector<Token> tokens;
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
        Token token;
        token.quoted = true;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\n') {
          token.text += text_[pos_++];
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
      Token token;
      while (pos_ < text_.size() && !std::isspace(
                 static_cast<unsigned char>(text_[pos_])) &&
             text_[pos_] != ';' && text_[pos_] != '(' && text_[pos_] != ')' &&
             text_[pos_] != '"') {
        token.text += text_[pos_++];
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

// ---------- field parsing ----------

std::optional<std::uint32_t> ParseU32(const std::string& text) {
  std::uint32_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// TTLs allow unit suffixes (300, 5m, 2h, 1d, 1w).
std::optional<std::uint32_t> ParseTtl(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char suffix = static_cast<char>(
      std::tolower(static_cast<unsigned char>(text.back())));
  std::uint32_t multiplier = 1;
  std::string digits = text;
  switch (suffix) {
    case 's': multiplier = 1; digits.pop_back(); break;
    case 'm': multiplier = 60; digits.pop_back(); break;
    case 'h': multiplier = 3600; digits.pop_back(); break;
    case 'd': multiplier = 86400; digits.pop_back(); break;
    case 'w': multiplier = 604800; digits.pop_back(); break;
    default: break;
  }
  auto value = ParseU32(digits);
  if (!value ||
      *value > std::numeric_limits<std::uint32_t>::max() / multiplier) {
    return std::nullopt;
  }
  return *value * multiplier;
}

/// An unsigned field of type T; sets `error` when it is not a number or
/// does not fit.
template <typename T>
std::optional<T> ParseUint(const std::string& text, std::string& error) {
  auto value = ParseU32(text);
  if (!value || *value > std::numeric_limits<T>::max()) {
    error = "bad " + std::to_string(8 * sizeof(T)) + "-bit integer '" + text +
            "'";
    return std::nullopt;
  }
  return static_cast<T>(*value);
}

std::optional<dns::Name> ParseNameField(const std::string& token,
                                        const dns::Name& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') {
    return dns::Name::Parse(token);  // absolute
  }
  auto relative = dns::Name::Parse(token);
  if (!relative) return std::nullopt;
  // Append the origin: relative-label list + origin labels.
  std::vector<std::string> labels;
  labels.reserve(relative->LabelCount() + origin.LabelCount());
  for (std::size_t i = 0; i < relative->LabelCount(); ++i) {
    labels.emplace_back(relative->Label(i));
  }
  for (std::size_t i = 0; i < origin.LabelCount(); ++i) {
    labels.emplace_back(origin.Label(i));
  }
  try {
    return dns::Name::FromLabels(std::move(labels));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::optional<std::vector<std::uint8_t>> ParseHex(const std::string& text) {
  if (text.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < text.size(); i += 2) {
    int hi = nibble(text[i]);
    int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

// ---------- rdata parsing, one function per type ----------

struct RecordParseContext {
  const std::vector<Token>& fields;  ///< RDATA fields only.
  const dns::Name& origin;
  std::string error;
};

std::optional<dns::Rdata> ParseRdata(dns::RrType type,
                                     RecordParseContext& ctx) {
  const auto& f = ctx.fields;
  auto need = [&ctx, &f](std::size_t n) {
    if (f.size() != n) {
      ctx.error = "expected " + std::to_string(n) + " rdata fields, got " +
                  std::to_string(f.size());
      return false;
    }
    return true;
  };
  auto name_at = [&ctx, &f](std::size_t i) -> std::optional<dns::Name> {
    auto name = ParseNameField(f[i].text, ctx.origin);
    if (!name) ctx.error = "bad name '" + f[i].text + "'";
    return name;
  };
  auto u16_at = [&ctx, &f](std::size_t i) {
    return ParseUint<std::uint16_t>(f[i].text, ctx.error);
  };
  auto u8_at = [&ctx, &f](std::size_t i) {
    return ParseUint<std::uint8_t>(f[i].text, ctx.error);
  };

  switch (type) {
    case dns::RrType::kA: {
      if (!need(1)) return std::nullopt;
      auto addr = net::Ipv4Address::Parse(f[0].text);
      if (!addr) {
        ctx.error = "bad IPv4 address '" + f[0].text + "'";
        return std::nullopt;
      }
      return dns::ARdata{*addr};
    }
    case dns::RrType::kAaaa: {
      if (!need(1)) return std::nullopt;
      auto addr = net::Ipv6Address::Parse(f[0].text);
      if (!addr) {
        ctx.error = "bad IPv6 address '" + f[0].text + "'";
        return std::nullopt;
      }
      return dns::AaaaRdata{*addr};
    }
    case dns::RrType::kNs: {
      if (!need(1)) return std::nullopt;
      auto name = name_at(0);
      if (!name) return std::nullopt;
      return dns::NsRdata{*name};
    }
    case dns::RrType::kCname: {
      if (!need(1)) return std::nullopt;
      auto name = name_at(0);
      if (!name) return std::nullopt;
      return dns::CnameRdata{*name};
    }
    case dns::RrType::kPtr: {
      if (!need(1)) return std::nullopt;
      auto name = name_at(0);
      if (!name) return std::nullopt;
      return dns::PtrRdata{*name};
    }
    case dns::RrType::kMx: {
      if (!need(2)) return std::nullopt;
      auto pref = u16_at(0);
      auto name = name_at(1);
      if (!pref || !name) return std::nullopt;
      return dns::MxRdata{*pref, *name};
    }
    case dns::RrType::kTxt: {
      if (f.empty()) {
        ctx.error = "TXT needs at least one string";
        return std::nullopt;
      }
      dns::TxtRdata txt;
      for (const auto& field : f) {
        if (field.text.size() > 255) {  // a character-string's length byte
          ctx.error = "TXT string longer than 255 bytes";
          return std::nullopt;
        }
        txt.strings.push_back(field.text);
      }
      return txt;
    }
    case dns::RrType::kSrv: {
      if (!need(4)) return std::nullopt;
      auto priority = u16_at(0);
      auto weight = u16_at(1);
      auto port = u16_at(2);
      auto target = name_at(3);
      if (!priority || !weight || !port || !target) return std::nullopt;
      return dns::SrvRdata{*priority, *weight, *port, *target};
    }
    case dns::RrType::kSoa: {
      if (!need(7)) return std::nullopt;
      auto mname = name_at(0);
      auto rname = name_at(1);
      if (!mname || !rname) return std::nullopt;
      dns::SoaRdata soa;
      soa.mname = *mname;
      soa.rname = *rname;
      std::optional<std::uint32_t> numbers[5];
      for (int i = 0; i < 5; ++i) {
        numbers[i] = ParseTtl(f[static_cast<std::size_t>(2 + i)].text);
        if (!numbers[i]) {
          ctx.error = "bad SOA field '" +
                      f[static_cast<std::size_t>(2 + i)].text + "'";
          return std::nullopt;
        }
      }
      soa.serial = *numbers[0];
      soa.refresh = *numbers[1];
      soa.retry = *numbers[2];
      soa.expire = *numbers[3];
      soa.minimum = *numbers[4];
      return soa;
    }
    case dns::RrType::kDs: {
      if (!need(4)) return std::nullopt;
      auto tag = u16_at(0);
      auto algorithm = u8_at(1);
      auto digest_type = u8_at(2);
      auto digest = ParseHex(f[3].text);
      if (!tag || !algorithm || !digest_type) return std::nullopt;
      if (!digest) {
        ctx.error = "bad DS digest hex";
        return std::nullopt;
      }
      return dns::DsRdata{*tag, *algorithm, *digest_type, std::move(*digest)};
    }
    case dns::RrType::kDnskey: {
      if (!need(4)) return std::nullopt;
      auto flags = u16_at(0);
      auto protocol = u8_at(1);
      auto algorithm = u8_at(2);
      auto key = ParseHex(f[3].text);
      if (!flags || !protocol || !algorithm) return std::nullopt;
      if (!key) {
        ctx.error = "bad DNSKEY hex";
        return std::nullopt;
      }
      return dns::DnskeyRdata{*flags, *protocol, *algorithm, std::move(*key)};
    }
    default:
      ctx.error = "unsupported record type in master file";
      return std::nullopt;
  }
}

std::string BytesToHex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

std::string RenderRdata(const dns::ResourceRecord& rr) {
  struct Visitor {
    std::string operator()(const dns::ARdata& r) const {
      return r.address.ToString();
    }
    std::string operator()(const dns::AaaaRdata& r) const {
      return r.address.ToString();
    }
    std::string operator()(const dns::NsRdata& r) const {
      return r.nameserver.ToString() + ".";
    }
    std::string operator()(const dns::CnameRdata& r) const {
      return r.target.ToString() + ".";
    }
    std::string operator()(const dns::PtrRdata& r) const {
      return r.target.ToString() + ".";
    }
    std::string operator()(const dns::MxRdata& r) const {
      return std::to_string(r.preference) + " " + r.exchange.ToString() + ".";
    }
    std::string operator()(const dns::TxtRdata& r) const {
      std::string out;
      for (const auto& s : r.strings) {
        if (!out.empty()) out += ' ';
        out += '"' + s + '"';
      }
      return out;
    }
    std::string operator()(const dns::SoaRdata& r) const {
      return r.mname.ToString() + ". " + r.rname.ToString() + ". " +
             std::to_string(r.serial) + " " + std::to_string(r.refresh) +
             " " + std::to_string(r.retry) + " " + std::to_string(r.expire) +
             " " + std::to_string(r.minimum);
    }
    std::string operator()(const dns::SrvRdata& r) const {
      return std::to_string(r.priority) + " " + std::to_string(r.weight) +
             " " + std::to_string(r.port) + " " + r.target.ToString() + ".";
    }
    std::string operator()(const dns::DsRdata& r) const {
      return std::to_string(r.key_tag) + " " + std::to_string(r.algorithm) +
             " " + std::to_string(r.digest_type) + " " + BytesToHex(r.digest);
    }
    std::string operator()(const dns::DnskeyRdata& r) const {
      return std::to_string(r.flags) + " " + std::to_string(r.protocol) +
             " " + std::to_string(r.algorithm) + " " +
             BytesToHex(r.public_key);
    }
    std::string operator()(const dns::RrsigRdata&) const { return {}; }
    std::string operator()(const dns::NsecRdata&) const { return {}; }
    std::string operator()(const dns::RawRdata&) const { return {}; }
  };
  return std::visit(Visitor{}, rr.rdata);
}

bool IsSerializableType(dns::RrType type) {
  switch (type) {
    case dns::RrType::kA:
    case dns::RrType::kAaaa:
    case dns::RrType::kNs:
    case dns::RrType::kCname:
    case dns::RrType::kPtr:
    case dns::RrType::kMx:
    case dns::RrType::kTxt:
    case dns::RrType::kSrv:
    case dns::RrType::kSoa:
    case dns::RrType::kDs:
    case dns::RrType::kDnskey:
      return true;
    default:
      return false;
  }
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
    if (tokens[0].text == "$ORIGIN") {
      if (tokens.size() != 2) {
        fail("$ORIGIN needs one argument");
        continue;
      }
      auto parsed = dns::Name::Parse(tokens[1].text);
      if (!parsed) {
        fail("bad $ORIGIN name");
        continue;
      }
      origin = *parsed;
      continue;
    }
    if (tokens[0].text == "$TTL") {
      if (tokens.size() != 2) {
        fail("$TTL needs one argument");
        continue;
      }
      auto ttl = ParseTtl(tokens[1].text);
      if (!ttl) {
        fail("bad $TTL value");
        continue;
      }
      default_ttl = *ttl;
      continue;
    }
    if (tokens[0].text.starts_with("$")) {
      fail("unknown directive " + tokens[0].text);
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
      auto parsed = ParseNameField(tokens[cursor].text, origin);
      if (!parsed) {
        fail("bad owner name '" + tokens[cursor].text + "'");
        continue;
      }
      owner = *parsed;
      ++cursor;
    }

    std::optional<std::uint32_t> ttl = default_ttl;
    // Optional TTL and class in either order. No type name starts with a
    // digit, so a token that does is a TTL.
    for (int i = 0; i < 2 && ttl && cursor < tokens.size(); ++i) {
      const std::string& text = tokens[cursor].text;
      if (text == "IN" || text == "in") {
        ++cursor;
      } else if (!text.empty() &&
                 std::isdigit(static_cast<unsigned char>(text.front()))) {
        ttl = ParseTtl(text);
        if (ttl) ++cursor;
      }
    }
    if (!ttl) {
      fail("bad TTL '" + tokens[cursor].text + "'");
      continue;
    }
    if (cursor >= tokens.size()) {
      fail("missing record type");
      continue;
    }
    std::string type_text = tokens[cursor].text;
    std::transform(type_text.begin(), type_text.end(), type_text.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    auto type = dns::RrTypeFromString(type_text);
    if (!type) {
      fail("unknown record type '" + tokens[cursor].text + "'");
      continue;
    }
    ++cursor;

    std::vector<Token> rdata_fields(tokens.begin() +
                                        static_cast<std::ptrdiff_t>(cursor),
                                    tokens.end());
    RecordParseContext ctx{rdata_fields, origin, {}};
    auto rdata = ParseRdata(*type, ctx);
    if (!rdata) {
      fail(ctx.error);
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
  std::string out;
  out += "$ORIGIN " + zone.apex().ToString() + (zone.apex().IsRoot() ? "" : ".") +
         "\n";

  auto render = [&out](const dns::ResourceRecord& rr) {
    if (!IsSerializableType(rr.type)) return;  // RRSIG/NSEC are derived
    out += rr.name.ToString() + ". " + std::to_string(rr.ttl) + " IN " +
           std::string(ToString(rr.type)) + " " + RenderRdata(rr) + "\n";
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
