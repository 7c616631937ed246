#include "dns/name.h"

#include <algorithm>
#include <stdexcept>

namespace clouddns::dns {
namespace {

[[nodiscard]] constexpr std::uint8_t LowerByte(std::uint8_t c) {
  // Label length prefixes are <= 63 and sit below 'A', so lowercasing the
  // whole flat byte stream never disturbs them.
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a') : c;
}

bool IsAllowedLabelChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_';
}

}  // namespace

void Name::CopyFrom(const Name& other) {
  hash_ = other.hash_;
  size_ = other.size_;
  label_count_ = other.label_count_;
  if (other.size_ > kInlineCapacity) {
    auto* heap = new std::uint8_t[kMaxFlatLength];
    std::memcpy(heap, other.HeapPtr(), other.size_);
    SetHeapPtr(heap);
  } else {
    std::memcpy(storage_, other.storage_, other.size_);
  }
}

void Name::MoveFrom(Name& other) noexcept {
  hash_ = other.hash_;
  size_ = other.size_;
  label_count_ = other.label_count_;
  if (other.size_ > kInlineCapacity) {
    SetHeapPtr(other.HeapPtr());
    other.size_ = 0;
    other.label_count_ = 0;
    other.hash_ = base::kShortFnvBasis;
  } else {
    std::memcpy(storage_, other.storage_, other.size_);
  }
}

void Name::AppendLabelUnchecked(const std::uint8_t* bytes, std::uint8_t len) {
  const std::size_t new_size = size_ + 1u + len;
  if (new_size > kInlineCapacity && size_ <= kInlineCapacity) {
    auto* heap = new std::uint8_t[kMaxFlatLength];
    std::memcpy(heap, storage_, size_);
    SetHeapPtr(heap);
  }
  std::uint8_t* dst =
      (new_size > kInlineCapacity ? HeapPtr() : storage_) + size_;
  *dst = len;
  std::memcpy(dst + 1, bytes, len);
  size_ = static_cast<std::uint8_t>(new_size);
  ++label_count_;
}

void Name::AppendFlatUnchecked(const std::uint8_t* bytes, std::size_t size,
                               std::size_t labels) {
  const std::size_t new_size = size_ + size;
  if (new_size > kInlineCapacity && size_ <= kInlineCapacity) {
    auto* heap = new std::uint8_t[kMaxFlatLength];
    std::memcpy(heap, storage_, size_);
    SetHeapPtr(heap);
  }
  std::uint8_t* dst =
      (new_size > kInlineCapacity ? HeapPtr() : storage_) + size_;
  std::memcpy(dst, bytes, size);
  size_ = static_cast<std::uint8_t>(new_size);
  label_count_ = static_cast<std::uint8_t>(label_count_ + labels);
}

std::uint64_t Name::HashFlat(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = base::kShortFnvBasis;
  for (std::size_t i = 0; i < size; ++i) {
    hash = base::Fnv1aStep(hash, LowerByte(data[i]));
  }
  return hash;
}

bool Name::FlatEquals(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    if (LowerByte(a[i]) != LowerByte(b[i])) return false;
  }
  return true;
}

std::size_t Name::LabelOffsets(std::uint8_t* offsets) const {
  const std::uint8_t* base = flat();
  const std::uint8_t* p = base;
  for (std::size_t i = 0; i < label_count_; ++i) {
    offsets[i] = static_cast<std::uint8_t>(p - base);
    p += 1 + *p;
  }
  return label_count_;
}

std::optional<Name> Name::Parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  Name name;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t dot = text.find('.', start);
    std::size_t end = (dot == std::string_view::npos) ? text.size() : dot;
    std::string_view label = text.substr(start, end - start);
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    for (char c : label) {
      if (!IsAllowedLabelChar(c)) return std::nullopt;
    }
    if (name.size_ + 1u + label.size() > kMaxFlatLength) return std::nullopt;
    name.AppendLabelUnchecked(
        reinterpret_cast<const std::uint8_t*>(label.data()),
        static_cast<std::uint8_t>(label.size()));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  name.RecomputeHash();
  return name;
}

Name Name::FromLabels(const std::vector<std::string>& labels) {
  Name name;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) {
      throw std::invalid_argument("Name::FromLabels: bad label");
    }
    if (name.size_ + 1u + label.size() > kMaxFlatLength) {
      throw std::invalid_argument("Name::FromLabels: name too long");
    }
    name.AppendLabelUnchecked(
        reinterpret_cast<const std::uint8_t*>(label.data()),
        static_cast<std::uint8_t>(label.size()));
  }
  name.RecomputeHash();
  return name;
}

bool Name::Builder::Append(const std::uint8_t* bytes, std::size_t len) {
  if (len == 0 || len > kMaxLabelLength ||
      name_.size_ + 1u + len > kMaxFlatLength) {
    return false;
  }
  name_.AppendLabelUnchecked(bytes, static_cast<std::uint8_t>(len));
  return true;
}

Name Name::Builder::Take() {
  name_.RecomputeHash();
  Name out = std::move(name_);
  name_ = Name();
  return out;
}

std::string_view Name::Label(std::size_t i) const {
  const std::uint8_t* p = flat();
  for (; i > 0; --i) {
    p += 1 + *p;
  }
  return {reinterpret_cast<const char*>(p + 1), *p};
}

Name Name::Parent() const {
  return Suffix(label_count_ > 0 ? label_count_ - 1u : 0u);
}

Name Name::Suffix(std::size_t count) const {
  if (count >= label_count_) return *this;
  const std::uint8_t* p = flat();
  for (std::size_t skip = label_count_ - count; skip > 0; --skip) {
    p += 1 + *p;
  }
  Name suffix;
  suffix.AppendFlatUnchecked(p, static_cast<std::size_t>(flat() + size_ - p),
                             count);
  suffix.RecomputeHash();
  return suffix;
}

Name Name::Child(std::string_view label) const {
  if (label.empty() || label.size() > kMaxLabelLength) {
    throw std::invalid_argument("Name::Child: bad label");
  }
  if (size_ + 1u + label.size() > kMaxFlatLength) {
    throw std::invalid_argument("Name::Child: name too long");
  }
  Name child;
  child.AppendLabelUnchecked(
      reinterpret_cast<const std::uint8_t*>(label.data()),
      static_cast<std::uint8_t>(label.size()));
  child.AppendFlatUnchecked(flat(), size_, label_count_);
  child.RecomputeHash();
  return child;
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.label_count_ > label_count_ || ancestor.size_ > size_) {
    return false;
  }
  // Walk whole labels off the front; a raw byte-suffix match is not enough
  // because an ASCII digit inside a label can masquerade as a length prefix
  // and fake a label boundary.
  const std::uint8_t* p = flat();
  for (std::size_t skip = label_count_ - ancestor.label_count_; skip > 0;
       --skip) {
    p += 1 + *p;
  }
  const auto tail = static_cast<std::size_t>(flat() + size_ - p);
  return tail == ancestor.size_ && FlatEquals(p, ancestor.flat(), tail);
}

bool Name::Equals(const Name& other) const {
  return hash_ == other.hash_ && size_ == other.size_ &&
         FlatEquals(flat(), other.flat(), size_);
}

int Name::Compare(const Name& other) const {
  // RFC 4034 §6.1 canonical ordering: compare label-by-label starting from
  // the least significant (rightmost) label.
  std::uint8_t offs_a[128];
  std::uint8_t offs_b[128];
  LabelOffsets(offs_a);
  other.LabelOffsets(offs_b);
  const std::uint8_t* base_a = flat();
  const std::uint8_t* base_b = other.flat();
  const std::size_t n =
      std::min<std::size_t>(label_count_, other.label_count_);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::uint8_t* a = base_a + offs_a[label_count_ - i];
    const std::uint8_t* b = base_b + offs_b[other.label_count_ - i];
    const std::size_t len_a = *a;
    const std::size_t len_b = *b;
    const std::size_t m = std::min(len_a, len_b);
    for (std::size_t j = 1; j <= m; ++j) {
      int diff = static_cast<int>(LowerByte(a[j])) -
                 static_cast<int>(LowerByte(b[j]));
      if (diff != 0) return diff < 0 ? -1 : 1;
    }
    if (len_a != len_b) return len_a < len_b ? -1 : 1;
  }
  if (label_count_ != other.label_count_) {
    return label_count_ < other.label_count_ ? -1 : 1;
  }
  return 0;
}

void Name::AppendCanonicalKey(std::string& out) const {
  // Lowercased bytes map to units 1..256, so the 0 unit after each label
  // sorts a label before every longer label it prefixes, \000 bytes
  // included, and a key that runs out first (fewer labels) sorts first.
  std::uint8_t offsets[128];
  LabelOffsets(offsets);
  const std::uint8_t* base = flat();
  for (std::size_t i = label_count_; i > 0; --i) {
    const std::uint8_t* label = base + offsets[i - 1];
    for (std::size_t j = 1; j <= *label; ++j) {
      const unsigned unit = LowerByte(label[j]) + 1u;
      out.push_back(static_cast<char>(unit >> 8));
      out.push_back(static_cast<char>(unit & 0xffu));
    }
    out.append(2, '\0');
  }
}

std::string Name::ToString() const {
  if (label_count_ == 0) return ".";
  std::string out;
  out.reserve(size_);
  const std::uint8_t* p = flat();
  for (std::size_t i = 0; i < label_count_; ++i) {
    if (i > 0) out += '.';
    out.append(reinterpret_cast<const char*>(p + 1), *p);
    p += 1 + *p;
  }
  return out;
}

std::string Name::ToKey() const {
  std::string key = ToString();
  for (char& c : key) c = AsciiLower(c);
  return key;
}

std::uint64_t Name::PresentationHash(std::uint64_t seed) const {
  std::uint64_t h = seed;
  auto mix = [&h](char c) {
    h = base::Fnv1aStep(h, static_cast<std::uint8_t>(c));
  };
  if (label_count_ == 0) {
    mix('.');
    return h;
  }
  const std::uint8_t* p = flat();
  for (std::size_t i = 0; i < label_count_; ++i) {
    if (i > 0) mix('.');
    for (std::uint8_t j = 1; j <= *p; ++j) {
      mix(AsciiLower(static_cast<char>(p[j])));
    }
    p += 1 + *p;
  }
  return h;
}

}  // namespace clouddns::dns
