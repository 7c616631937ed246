#include "dns/rdata.h"

#include <algorithm>

namespace clouddns::dns {
namespace {

/// Appends the types of the bitmap that ends at `end_offset` to `out`.
bool DecodeTypeBitmap(WireReader& reader, std::size_t end_offset,
                      std::vector<RrType>& out) {
  while (reader.offset() < end_offset) {
    std::uint8_t window = 0, len = 0;
    if (!reader.ReadU8(window) || !reader.ReadU8(len)) return false;
    if (len == 0 || len > 32) return false;
    std::uint8_t bitmap[32] = {};
    if (!reader.ReadBytes(len, bitmap)) return false;
    for (std::size_t byte = 0; byte < len; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        if (bitmap[byte] & (0x80u >> bit)) {
          out.push_back(static_cast<RrType>((window << 8) |
                                            (byte * 8 + static_cast<std::size_t>(bit))));
        }
      }
    }
  }
  return reader.offset() == end_offset;
}

/// The `T` alternative of `out`, decoded over in place when `out` already
/// holds one (so its byte buffers keep their capacity), else a fresh one.
template <typename T>
T& SlotFor(Rdata& out) {
  if (T* held = std::get_if<T>(&out)) return *held;
  return out.emplace<T>();
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

struct EncodeVisitor {
  WireWriter& writer;

  void operator()(const ARdata& r) const {
    auto bytes = r.address.ToBytes();
    writer.WriteBytes(bytes.data(), bytes.size());
  }
  void operator()(const AaaaRdata& r) const {
    writer.WriteBytes(r.address.bytes().data(), r.address.bytes().size());
  }
  void operator()(const NsRdata& r) const { writer.WriteName(r.nameserver); }
  void operator()(const CnameRdata& r) const { writer.WriteName(r.target); }
  void operator()(const PtrRdata& r) const { writer.WriteName(r.target); }
  void operator()(const MxRdata& r) const {
    writer.WriteU16(r.preference);
    writer.WriteName(r.exchange);
  }
  void operator()(const TxtRdata& r) const {
    for (const auto& s : r.strings) {
      std::size_t len = std::min<std::size_t>(s.size(), 255);
      writer.WriteU8(static_cast<std::uint8_t>(len));
      writer.WriteBytes(reinterpret_cast<const std::uint8_t*>(s.data()), len);
    }
  }
  void operator()(const SoaRdata& r) const {
    writer.WriteName(r.mname);
    writer.WriteName(r.rname);
    writer.WriteU32(r.serial);
    writer.WriteU32(r.refresh);
    writer.WriteU32(r.retry);
    writer.WriteU32(r.expire);
    writer.WriteU32(r.minimum);
  }
  void operator()(const SrvRdata& r) const {
    writer.WriteU16(r.priority);
    writer.WriteU16(r.weight);
    writer.WriteU16(r.port);
    writer.WriteName(r.target, /*compress=*/false);
  }
  void operator()(const DsRdata& r) const {
    writer.WriteU16(r.key_tag);
    writer.WriteU8(r.algorithm);
    writer.WriteU8(r.digest_type);
    writer.WriteBytes(r.digest);
  }
  void operator()(const DnskeyRdata& r) const {
    writer.WriteU16(r.flags);
    writer.WriteU8(r.protocol);
    writer.WriteU8(r.algorithm);
    writer.WriteBytes(r.public_key);
  }
  void operator()(const RrsigRdata& r) const {
    writer.WriteU16(r.type_covered);
    writer.WriteU8(r.algorithm);
    writer.WriteU8(r.labels);
    writer.WriteU32(r.original_ttl);
    writer.WriteU32(r.expiration);
    writer.WriteU32(r.inception);
    writer.WriteU16(r.key_tag);
    writer.WriteName(r.signer, /*compress=*/false);
    writer.WriteBytes(r.signature);
  }
  void operator()(const NsecRdata& r) const {
    writer.WriteName(r.next, /*compress=*/false);
    EncodeTypeBitmap(r.types, writer);
  }
  void operator()(const RawRdata& r) const { writer.WriteBytes(r.data); }
};

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
  std::visit(EncodeVisitor{writer}, rdata);
}

bool DecodeRdata(RrType type, std::uint16_t rdlength, WireReader& reader,
                 Rdata& out) {
  const std::size_t end = reader.offset() + rdlength;
  if (reader.remaining() < rdlength) return false;

  auto finish = [&reader, end] { return reader.offset() == end; };

  switch (type) {
    case RrType::kA: {
      std::uint32_t bits = 0;
      if (rdlength != 4 || !reader.ReadU32(bits)) return false;
      SlotFor<ARdata>(out).address = net::Ipv4Address(bits);
      return true;
    }
    case RrType::kAaaa: {
      net::Ipv6Address::Bytes bytes;
      if (rdlength != 16 || !reader.ReadBytes(bytes.size(), bytes.data())) {
        return false;
      }
      SlotFor<AaaaRdata>(out).address = net::Ipv6Address(bytes);
      return true;
    }
    case RrType::kNs:
      return reader.ReadName(SlotFor<NsRdata>(out).nameserver) && finish();
    case RrType::kCname:
      return reader.ReadName(SlotFor<CnameRdata>(out).target) && finish();
    case RrType::kPtr:
      return reader.ReadName(SlotFor<PtrRdata>(out).target) && finish();
    case RrType::kMx: {
      MxRdata& r = SlotFor<MxRdata>(out);
      return reader.ReadU16(r.preference) && reader.ReadName(r.exchange) &&
             finish();
    }
    case RrType::kTxt: {
      TxtRdata& r = SlotFor<TxtRdata>(out);
      std::size_t count = 0;
      while (reader.offset() < end) {
        std::uint8_t len = 0;
        if (!reader.ReadU8(len)) return false;
        if (reader.offset() + len > end) return false;
        if (count == r.strings.size()) r.strings.emplace_back();
        std::string& text = r.strings[count++];
        text.resize(len);
        if (!reader.ReadBytes(len, reinterpret_cast<std::uint8_t*>(
                                       text.data()))) {
          return false;
        }
      }
      r.strings.resize(count);
      return finish();
    }
    case RrType::kSoa: {
      SoaRdata& r = SlotFor<SoaRdata>(out);
      return reader.ReadName(r.mname) && reader.ReadName(r.rname) &&
             reader.ReadU32(r.serial) && reader.ReadU32(r.refresh) &&
             reader.ReadU32(r.retry) && reader.ReadU32(r.expire) &&
             reader.ReadU32(r.minimum) && finish();
    }
    case RrType::kSrv: {
      SrvRdata& r = SlotFor<SrvRdata>(out);
      return reader.ReadU16(r.priority) && reader.ReadU16(r.weight) &&
             reader.ReadU16(r.port) && reader.ReadName(r.target) && finish();
    }
    case RrType::kDs: {
      if (rdlength < 4) return false;
      DsRdata& r = SlotFor<DsRdata>(out);
      return reader.ReadU16(r.key_tag) && reader.ReadU8(r.algorithm) &&
             reader.ReadU8(r.digest_type) &&
             reader.ReadBytes(end - reader.offset(), r.digest);
    }
    case RrType::kDnskey: {
      if (rdlength < 4) return false;
      DnskeyRdata& r = SlotFor<DnskeyRdata>(out);
      return reader.ReadU16(r.flags) && reader.ReadU8(r.protocol) &&
             reader.ReadU8(r.algorithm) &&
             reader.ReadBytes(end - reader.offset(), r.public_key);
    }
    case RrType::kRrsig: {
      if (rdlength < 18) return false;
      RrsigRdata& r = SlotFor<RrsigRdata>(out);
      if (!reader.ReadU16(r.type_covered) || !reader.ReadU8(r.algorithm) ||
          !reader.ReadU8(r.labels) || !reader.ReadU32(r.original_ttl) ||
          !reader.ReadU32(r.expiration) || !reader.ReadU32(r.inception) ||
          !reader.ReadU16(r.key_tag) || !reader.ReadName(r.signer)) {
        return false;
      }
      if (reader.offset() > end) return false;
      return reader.ReadBytes(end - reader.offset(), r.signature);
    }
    case RrType::kNsec: {
      NsecRdata& r = SlotFor<NsecRdata>(out);
      if (!reader.ReadName(r.next)) return false;
      if (reader.offset() > end) return false;
      r.types.clear();
      return DecodeTypeBitmap(reader, end, r.types);
    }
    default:
      return reader.ReadBytes(rdlength, SlotFor<RawRdata>(out).data);
  }
}

std::string RdataToString(const Rdata& rdata) {
  struct Visitor {
    std::string operator()(const ARdata& r) const {
      return r.address.ToString();
    }
    std::string operator()(const AaaaRdata& r) const {
      return r.address.ToString();
    }
    std::string operator()(const NsRdata& r) const {
      return r.nameserver.ToString();
    }
    std::string operator()(const CnameRdata& r) const {
      return r.target.ToString();
    }
    std::string operator()(const PtrRdata& r) const {
      return r.target.ToString();
    }
    std::string operator()(const MxRdata& r) const {
      return std::to_string(r.preference) + " " + r.exchange.ToString();
    }
    std::string operator()(const TxtRdata& r) const {
      std::string out;
      for (const auto& s : r.strings) {
        if (!out.empty()) out += ' ';
        out += '"' + s + '"';
      }
      return out;
    }
    std::string operator()(const SoaRdata& r) const {
      return r.mname.ToString() + " " + r.rname.ToString() + " " +
             std::to_string(r.serial);
    }
    std::string operator()(const SrvRdata& r) const {
      return std::to_string(r.priority) + " " + std::to_string(r.weight) +
             " " + std::to_string(r.port) + " " + r.target.ToString();
    }
    std::string operator()(const DsRdata& r) const {
      return std::to_string(r.key_tag) + " " + std::to_string(r.algorithm) +
             " " + std::to_string(r.digest_type) + " " + BytesToHex(r.digest);
    }
    std::string operator()(const DnskeyRdata& r) const {
      return std::to_string(r.flags) + " " + std::to_string(r.protocol) +
             " " + std::to_string(r.algorithm) + " " +
             BytesToHex(r.public_key);
    }
    std::string operator()(const RrsigRdata& r) const {
      return std::string(ToString(static_cast<RrType>(r.type_covered))) +
             " " + r.signer.ToString() + " " + std::to_string(r.key_tag);
    }
    std::string operator()(const NsecRdata& r) const {
      std::string out = r.next.ToString();
      for (RrType t : r.types) {
        out += ' ';
        out += ToString(t);
      }
      return out;
    }
    std::string operator()(const RawRdata& r) const {
      return "\\# " + std::to_string(r.data.size()) + " " + BytesToHex(r.data);
    }
  };
  return std::visit(Visitor{}, rdata);
}

}  // namespace clouddns::dns
