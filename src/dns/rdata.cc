#include "dns/rdata.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

namespace clouddns::dns {
namespace {

/// The `T` alternative of `out`, decoded over in place when `out` already
/// holds one (so its byte buffers keep their capacity), else a fresh one.
template <typename T>
T& SlotFor(Rdata& out) {
  if (T* held = std::get_if<T>(&out)) return *held;
  return out.emplace<T>();
}

void Put(WireWriter& w, std::uint8_t v) { w.WriteU8(v); }
void Put(WireWriter& w, std::uint16_t v) { w.WriteU16(v); }
void Put(WireWriter& w, std::uint32_t v) { w.WriteU32(v); }
bool Get(WireReader& r, std::uint8_t& v) { return r.ReadU8(v); }
bool Get(WireReader& r, std::uint16_t& v) { return r.ReadU16(v); }
bool Get(WireReader& r, std::uint32_t& v) { return r.ReadU32(v); }

/// Unsigned decimal, the whole text, no sign.
std::optional<std::uint32_t> ParseDecimal(std::string_view text) {
  std::uint32_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Even-length, non-empty hex in either case.
std::optional<std::vector<std::uint8_t>> ParseHex(std::string_view text) {
  if (text.empty() || text.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const int hi = nibble(text[i]), lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

void AppendHex(const std::vector<std::uint8_t>& bytes, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
}

/// A type's mnemonic, or RFC 3597's "TYPE<n>" for an unnamed one.
void AppendType(RrType type, std::string& out) {
  const std::string_view name = ToString(type);
  if (name != "TYPE?") {
    out += name;
  } else {
    out += "TYPE" + std::to_string(static_cast<std::uint16_t>(type));
  }
}

/// Presentation output: the fields' tokens, separated by single spaces.
struct TextOut {
  std::string& out;
  bool first = true;

  std::string& Token() {
    if (!first) out += ' ';
    first = false;
    return out;
  }
};

/// Presentation input: the RDATA tokens, consumed front to back.
struct TextIn {
  std::span<const std::string> tokens;
  const Name& origin;
  std::string& error;
  std::size_t next = 0;

  /// The next token, or null (with the error set) when none is left.
  const std::string* Token() {
    if (next < tokens.size()) return &tokens[next++];
    error = "too few rdata fields (" + std::to_string(tokens.size()) + ")";
    return nullptr;
  }
  [[nodiscard]] bool AtEnd() const { return next == tokens.size(); }
  bool Fail(std::string message) {
    error = std::move(message);
    return false;
  }
};

// ---------- field kinds ----------
//
// Each kind binds one member of an RDATA struct `R` and knows that
// member's wire form (Encode; Decode, given the offset `end` the RDATA
// ends at) and its presentation text (Render; Parse).

/// An unsigned 8-, 16- or 32-bit integer, in decimal.
template <typename R, typename T>
struct Uint {
  using Record = R;
  T R::*member;

  void Encode(const R& r, WireWriter& w) const { Put(w, r.*member); }
  bool Decode(R& r, WireReader& in, std::size_t) const {
    return Get(in, r.*member);
  }
  void Render(const R& r, TextOut& out) const {
    out.Token() += std::to_string(r.*member);
  }
  bool Parse(R& r, TextIn& in) const {
    const std::string* token = in.Token();
    if (!token) return false;
    auto value = ParseDecimal(*token);
    if (!value || *value > std::numeric_limits<T>::max()) {
      return in.Fail("bad " + std::to_string(8 * sizeof(T)) +
                     "-bit integer '" + *token + "'");
    }
    r.*member = static_cast<T>(*value);
    return true;
  }
};

/// An SOA timer: a 32-bit integer that parses with a TTL's unit suffix.
template <typename R>
struct Timer : Uint<R, std::uint32_t> {
  bool Parse(R& r, TextIn& in) const {
    const std::string* token = in.Token();
    if (!token) return false;
    auto value = ParseTtl(*token);
    if (!value) return in.Fail("bad SOA field '" + *token + "'");
    r.*(this->member) = *value;
    return true;
  }
};

/// A 16-bit type code, written as its mnemonic (RRSIG's type covered).
template <typename R>
struct TypeCode : Uint<R, std::uint16_t> {
  void Render(const R& r, TextOut& out) const {
    AppendType(static_cast<RrType>(r.*(this->member)), out.Token());
  }
  bool Parse(R& r, TextIn& in) const {
    const std::string* token = in.Token();
    if (!token) return false;
    auto type = RrTypeFromString(*token);
    if (!type) return in.Fail("bad type '" + *token + "'");
    r.*(this->member) = static_cast<std::uint16_t>(*type);
    return true;
  }
};

/// An IPv4 (A = net::Ipv4Address) or IPv6 (net::Ipv6Address) address.
template <typename R, typename A>
struct Address {
  static constexpr bool kV4 = std::is_same_v<A, net::Ipv4Address>;
  using Record = R;
  A R::*member;

  void Encode(const R& r, WireWriter& w) const {
    if constexpr (kV4) {
      w.WriteU32((r.*member).bits());
    } else {
      w.WriteBytes((r.*member).bytes().data(), (r.*member).bytes().size());
    }
  }
  bool Decode(R& r, WireReader& in, std::size_t) const {
    if constexpr (kV4) {
      std::uint32_t bits = 0;
      if (!in.ReadU32(bits)) return false;
      r.*member = A(bits);
    } else {
      typename A::Bytes bytes;
      if (!in.ReadBytes(bytes.size(), bytes.data())) return false;
      r.*member = A(bytes);
    }
    return true;
  }
  void Render(const R& r, TextOut& out) const {
    out.Token() += (r.*member).ToString();
  }
  bool Parse(R& r, TextIn& in) const {
    const std::string* token = in.Token();
    if (!token) return false;
    auto address = A::Parse(*token);
    if (!address) {
      return in.Fail(std::string(kV4 ? "bad IPv4" : "bad IPv6") +
                     " address '" + *token + "'");
    }
    r.*member = *address;
    return true;
  }
};

/// Whether a name field may be compressed on the wire: RFC 3597 §4 allows
/// it only in the RDATA of the RFC 1035 types.
enum class Compression : bool { kNever, kAllowed };

template <typename R>
struct Domain {
  using Record = R;
  Name R::*member;
  Compression compression;

  void Encode(const R& r, WireWriter& w) const {
    w.WriteName(r.*member, compression == Compression::kAllowed);
  }
  bool Decode(R& r, WireReader& in, std::size_t) const {
    return in.ReadName(r.*member);
  }
  void Render(const R& r, TextOut& out) const {
    out.Token() += AbsoluteName(r.*member);
  }
  bool Parse(R& r, TextIn& in) const {
    const std::string* token = in.Token();
    if (!token) return false;
    auto name = ParseNameField(*token, in.origin);
    if (!name) return in.Fail("bad name '" + *token + "'");
    r.*member = std::move(*name);
    return true;
  }
};

/// Character-strings to the end of the RDATA (TXT), each quoted in text
/// with RFC 1035 §5.1 escapes: `\"` and `\\` for a quote and a
/// backslash, `\DDD` (decimal) for a byte outside printable ASCII, and
/// `\X` for any other non-digit X when read.
template <typename R>
struct CharStrings {
  using Record = R;
  std::vector<std::string> R::*member;

  void Encode(const R& r, WireWriter& w) const {
    for (const auto& s : r.*member) {
      const std::size_t len = std::min<std::size_t>(s.size(), 255);
      w.WriteU8(static_cast<std::uint8_t>(len));
      w.WriteBytes(reinterpret_cast<const std::uint8_t*>(s.data()), len);
    }
  }
  bool Decode(R& r, WireReader& in, std::size_t end) const {
    std::vector<std::string>& strings = r.*member;
    std::size_t count = 0;
    while (in.offset() < end) {
      std::uint8_t len = 0;
      if (!in.ReadU8(len) || in.offset() + len > end) return false;
      if (count == strings.size()) strings.emplace_back();
      std::string& text = strings[count++];
      text.resize(len);
      if (!in.ReadBytes(len, reinterpret_cast<std::uint8_t*>(text.data()))) {
        return false;
      }
    }
    strings.resize(count);
    return true;
  }
  void Render(const R& r, TextOut& out) const {
    for (const auto& s : r.*member) {
      std::string& text = out.Token();
      text += '"';
      for (const char c : s) {
        const auto byte = static_cast<std::uint8_t>(c);
        if (c == '"' || c == '\\') {
          text += '\\';
          text += c;
        } else if (byte < 0x20 || byte > 0x7e) {
          text += '\\';
          text += static_cast<char>('0' + byte / 100);
          text += static_cast<char>('0' + byte / 10 % 10);
          text += static_cast<char>('0' + byte % 10);
        } else {
          text += c;
        }
      }
      text += '"';
    }
  }
  bool Parse(R& r, TextIn& in) const {
    do {
      const std::string* token = in.Token();
      if (!token) return false;
      std::string text;
      for (std::size_t i = 0; i < token->size(); ++i) {
        char c = (*token)[i];
        if (c == '\\') {
          const std::string_view rest = std::string_view(*token).substr(i + 1);
          if (rest.empty()) return in.Fail("character-string ends in '\\'");
          if (std::isdigit(static_cast<unsigned char>(rest[0])) == 0) {
            c = rest[0];
            i += 1;
          } else {
            const auto value = ParseDecimal(rest.substr(0, 3));
            if (rest.size() < 3 || !value || *value > 255) {
              return in.Fail("bad \\DDD escape in character-string");
            }
            c = static_cast<char>(*value);
            i += 3;
          }
        }
        text += c;
      }
      if (text.size() > 255) {  // a character-string's length byte
        return in.Fail("character-string longer than 255 bytes");
      }
      (r.*member).push_back(std::move(text));
    } while (!in.AtEnd());
    return true;
  }
};

/// Bytes to the end of the RDATA, one hex token in text. The generic form
/// (RFC 3597 §5) writes "\# <length>" first and no hex for no bytes.
template <typename R>
struct HexToEnd {
  using Record = R;
  std::vector<std::uint8_t> R::*member;
  bool generic = false;

  void Encode(const R& r, WireWriter& w) const { w.WriteBytes(r.*member); }
  bool Decode(R& r, WireReader& in, std::size_t end) const {
    return in.offset() <= end && in.ReadBytes(end - in.offset(), r.*member);
  }
  void Render(const R& r, TextOut& out) const {
    const std::vector<std::uint8_t>& bytes = r.*member;
    if (generic) {
      out.Token() += "\\# " + std::to_string(bytes.size());
      if (bytes.empty()) return;
    }
    AppendHex(bytes, out.Token());
  }
  bool Parse(R& r, TextIn& in) const {
    std::optional<std::uint32_t> length;
    if (generic) {
      const std::string* marker = in.Token();
      if (!marker) return false;
      if (*marker != "\\#") return in.Fail("raw rdata must start '\\#'");
      const std::string* size = in.Token();
      if (!size) return false;
      length = ParseDecimal(*size);
      if (!length || *length > 0xffff) {
        return in.Fail("bad raw rdata length '" + *size + "'");
      }
      if (*length == 0) return true;
    }
    const std::string* token = in.Token();
    if (!token) return false;
    auto bytes = ParseHex(*token);
    if (!bytes || (length && bytes->size() != *length)) {
      return in.Fail("bad hex '" + *token + "'");
    }
    r.*member = std::move(*bytes);
    return true;
  }
};

/// The NSEC type bitmap (RFC 4034 §4.1.2) to the end of the RDATA, type
/// mnemonics in text.
template <typename R>
struct TypeBitmap {
  using Record = R;
  std::vector<RrType> R::*member;

  void Encode(const R& r, WireWriter& w) const {
    EncodeTypeBitmap(r.*member, w);
  }
  bool Decode(R& r, WireReader& in, std::size_t end) const {
    std::vector<RrType>& types = r.*member;
    types.clear();
    if (in.offset() > end) return false;
    while (in.offset() < end) {
      std::uint8_t window = 0, len = 0;
      std::uint8_t bitmap[32] = {};
      if (!in.ReadU8(window) || !in.ReadU8(len) || len == 0 || len > 32 ||
          !in.ReadBytes(len, bitmap)) {
        return false;
      }
      for (int bit = 0; bit < len * 8; ++bit) {
        if (bitmap[bit / 8] & (0x80u >> (bit % 8))) {
          types.push_back(static_cast<RrType>((window << 8) | bit));
        }
      }
    }
    return in.offset() == end;
  }
  void Render(const R& r, TextOut& out) const {
    for (RrType type : r.*member) AppendType(type, out.Token());
  }
  bool Parse(R& r, TextIn& in) const {
    while (!in.AtEnd()) {
      const std::string& token = *in.Token();
      auto type = RrTypeFromString(token);
      if (!type) return in.Fail("bad type '" + token + "'");
      (r.*member).push_back(*type);
    }
    return true;
  }
};

// ---------- the forms ----------

/// One RDATA form: its type code and its fields in wire order. Each
/// operation is one fold over the fields.
template <typename... F>
struct Form {
  using Record = typename std::tuple_element_t<0, std::tuple<F...>>::Record;
  RrType type;
  std::tuple<F...> fields;

  constexpr explicit Form(RrType t, F... f) : type(t), fields(f...) {}

  void Encode(const Record& r, WireWriter& w) const {
    std::apply([&](const auto&... f) { (f.Encode(r, w), ...); }, fields);
  }
  bool Decode(Record& r, WireReader& in, std::size_t end) const {
    return std::apply(
        [&](const auto&... f) { return (f.Decode(r, in, end) && ...); },
        fields);
  }
  void Render(const Record& r, TextOut& out) const {
    std::apply([&](const auto&... f) { (f.Render(r, out), ...); }, fields);
  }
  bool Parse(Record& r, TextIn& in) const {
    return std::apply([&](const auto&... f) { return (f.Parse(r, in) && ...); },
                      fields);
  }
};

constexpr auto kAllowed = Compression::kAllowed;
constexpr auto kNever = Compression::kNever;

/// Every alternative of Rdata, in the variant's order; RawRdata, the
/// fallback for every other type, comes last.
constexpr std::tuple kForms{
    Form{RrType::kA, Address{&ARdata::address}},
    Form{RrType::kAaaa, Address{&AaaaRdata::address}},
    Form{RrType::kNs, Domain{&NsRdata::nameserver, kAllowed}},
    Form{RrType::kCname, Domain{&CnameRdata::target, kAllowed}},
    Form{RrType::kPtr, Domain{&PtrRdata::target, kAllowed}},
    Form{RrType::kMx, Uint{&MxRdata::preference},
         Domain{&MxRdata::exchange, kAllowed}},
    Form{RrType::kTxt, CharStrings{&TxtRdata::strings}},
    Form{RrType::kSoa, Domain{&SoaRdata::mname, kAllowed},
         Domain{&SoaRdata::rname, kAllowed}, Uint{&SoaRdata::serial},
         Timer<SoaRdata>{{&SoaRdata::refresh}},
         Timer<SoaRdata>{{&SoaRdata::retry}},
         Timer<SoaRdata>{{&SoaRdata::expire}},
         Timer<SoaRdata>{{&SoaRdata::minimum}}},
    Form{RrType::kSrv, Uint{&SrvRdata::priority}, Uint{&SrvRdata::weight},
         Uint{&SrvRdata::port}, Domain{&SrvRdata::target, kNever}},
    Form{RrType::kDs, Uint{&DsRdata::key_tag}, Uint{&DsRdata::algorithm},
         Uint{&DsRdata::digest_type}, HexToEnd{&DsRdata::digest}},
    Form{RrType::kDnskey, Uint{&DnskeyRdata::flags},
         Uint{&DnskeyRdata::protocol}, Uint{&DnskeyRdata::algorithm},
         HexToEnd{&DnskeyRdata::public_key}},
    Form{RrType::kRrsig, TypeCode<RrsigRdata>{{&RrsigRdata::type_covered}},
         Uint{&RrsigRdata::algorithm}, Uint{&RrsigRdata::labels},
         Uint{&RrsigRdata::original_ttl}, Uint{&RrsigRdata::expiration},
         Uint{&RrsigRdata::inception}, Uint{&RrsigRdata::key_tag},
         Domain{&RrsigRdata::signer, kNever},
         HexToEnd{&RrsigRdata::signature}},
    Form{RrType::kNsec, Domain{&NsecRdata::next, kNever},
         TypeBitmap{&NsecRdata::types}},
    Form{RrType{0}, HexToEnd{&RawRdata::data, /*generic=*/true}},
};

constexpr std::size_t kFormCount = std::tuple_size_v<decltype(kForms)>;
static_assert([]<std::size_t... I>(std::index_sequence<I...>) {
  return kFormCount == std::variant_size_v<Rdata> &&
         (std::is_same_v<
              typename std::tuple_element_t<I, decltype(kForms)>::Record,
              std::variant_alternative_t<I, Rdata>> && ...);
}(std::make_index_sequence<kFormCount>{}));

/// `fn(form, alternative)` for the alternative `rdata` holds.
template <typename Fn>
void WithFormOf(const Rdata& rdata, Fn&& fn) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (void)((rdata.index() == I &&
            (fn(std::get<I>(kForms), *std::get_if<I>(&rdata)), true)) ||
           ...);
  }(std::make_index_sequence<kFormCount>{});
}

/// `fn(form)` for the typed form of `type`, or for the raw form.
template <typename Fn>
bool WithFormFor(RrType type, Fn&& fn) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    bool result = false;
    const bool typed = ((std::get<I>(kForms).type == type &&
                         (result = fn(std::get<I>(kForms)), true)) ||
                        ...);
    return typed ? result : fn(std::get<kFormCount - 1>(kForms));
  }(std::make_index_sequence<kFormCount - 1>{});
}

}  // namespace

void EncodeTypeBitmap(std::span<const RrType> types, WireWriter& writer) {
  // RFC 4034 §4.1.2: window blocks of 256 types in ascending order, each a
  // bitmap of up to 32 bytes. Each block takes one pass over `types` to
  // find the next window and one to fill it, so nothing is sorted or
  // allocated.
  int window = -1;
  for (;;) {
    int next = 256;
    for (RrType t : types) {
      const int w = static_cast<std::uint16_t>(t) >> 8;
      if (w > window && w < next) next = w;
    }
    if (next == 256) return;
    window = next;
    std::uint8_t bitmap[32] = {};
    int max_byte = -1;
    for (RrType t : types) {
      const auto value = static_cast<std::uint16_t>(t);
      if ((value >> 8) != window) continue;
      const int low = value & 0xff;
      bitmap[low / 8] |= static_cast<std::uint8_t>(0x80 >> (low % 8));
      max_byte = std::max(max_byte, low / 8);
    }
    writer.WriteU8(static_cast<std::uint8_t>(window));
    writer.WriteU8(static_cast<std::uint8_t>(max_byte + 1));
    writer.WriteBytes(bitmap, static_cast<std::size_t>(max_byte + 1));
  }
}

void EncodeRdata(const Rdata& rdata, WireWriter& writer) {
  WithFormOf(rdata, [&](const auto& form, const auto& r) {
    form.Encode(r, writer);
  });
}

bool DecodeRdata(RrType type, std::uint16_t rdlength, WireReader& reader,
                 Rdata& out) {
  if (reader.remaining() < rdlength) return false;
  const std::size_t end = reader.offset() + rdlength;
  return WithFormFor(type, [&](const auto& form) {
    using R = typename std::decay_t<decltype(form)>::Record;
    return form.Decode(SlotFor<R>(out), reader, end) && reader.offset() == end;
  });
}

std::string RdataToString(const Rdata& rdata) {
  std::string out;
  TextOut text{out};
  WithFormOf(rdata, [&](const auto& form, const auto& r) {
    form.Render(r, text);
  });
  return out;
}

std::optional<Rdata> ParseRdata(RrType type,
                                std::span<const std::string> fields,
                                const Name& origin, std::string& error) {
  Rdata out;
  TextIn in{fields, origin, error};
  const bool ok = WithFormFor(type, [&](const auto& form) {
    using R = typename std::decay_t<decltype(form)>::Record;
    return form.Parse(out.emplace<R>(), in);
  });
  if (!ok) return std::nullopt;
  if (!in.AtEnd()) {
    error = "too many rdata fields (" + std::to_string(fields.size()) + ")";
    return std::nullopt;
  }
  return out;
}

std::optional<Name> ParseNameField(std::string_view token,
                                   const Name& origin) {
  if (token == "@") return origin;
  if (token.ends_with('.') || origin.IsRoot()) return Name::Parse(token);
  return Name::Parse(std::string(token) + "." + origin.ToString());
}

std::optional<std::uint32_t> ParseTtl(std::string_view text) {
  static constexpr std::pair<char, std::uint32_t> kUnits[] = {
      {'s', 1}, {'m', 60}, {'h', 3600}, {'d', 86400}, {'w', 604800}};
  std::uint32_t unit = 1;
  for (const auto& [suffix, seconds] : kUnits) {
    if (!text.empty() &&
        std::tolower(static_cast<unsigned char>(text.back())) == suffix) {
      unit = seconds;
      text.remove_suffix(1);
      break;
    }
  }
  auto value = ParseDecimal(text);
  if (!value || *value > std::numeric_limits<std::uint32_t>::max() / unit) {
    return std::nullopt;
  }
  return *value * unit;
}

std::string AbsoluteName(const Name& name) {
  return name.IsRoot() ? "." : name.ToString() + ".";
}

}  // namespace clouddns::dns
