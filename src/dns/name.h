// DNS domain names (RFC 1035 §3.1) as a sequence of labels.
//
// Names compare and hash case-insensitively, as the protocol requires, but
// preserve the case they were constructed with. The root name has zero
// labels and prints as ".".
//
// Storage is a flat, length-prefixed label sequence ([len][bytes]...,
// most specific label first, no terminating root byte) held in a small
// inline buffer, with a heap fallback for the rare name longer than
// kInlineCapacity flat bytes. The case-insensitive FNV-1a hash over the
// flat bytes is computed once at construction, so hash-keyed containers
// and caches never rebuild a canonical key per lookup.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.h"
#include "base/lifetime.h"

namespace clouddns::dns {

/// Lowercases an ASCII character; DNS is ASCII-case-insensitive only.
[[nodiscard]] constexpr char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

class Name {
 public:
  static constexpr std::size_t kMaxLabelLength = 63;
  /// Maximum wire length including the terminating root byte.
  static constexpr std::size_t kMaxWireLength = 255;
  /// Maximum flat storage bytes (wire length minus the root byte).
  static constexpr std::size_t kMaxFlatLength = kMaxWireLength - 1;
  /// Flat sizes up to this stay in the inline buffer (sizeof(Name) == 64);
  /// longer names (rare: deep chains, 63-byte labels) go to one heap block.
  static constexpr std::size_t kInlineCapacity = 54;

  /// The root name ".".
  Name() noexcept : hash_(base::kShortFnvBasis) {}
  Name(const Name& other) { CopyFrom(other); }
  Name(Name&& other) noexcept { MoveFrom(other); }
  Name& operator=(const Name& other) {
    if (this != &other) {
      ReleaseHeap();
      CopyFrom(other);
    }
    return *this;
  }
  Name& operator=(Name&& other) noexcept {
    if (this != &other) {
      ReleaseHeap();
      MoveFrom(other);
    }
    return *this;
  }
  ~Name() { ReleaseHeap(); }

  /// Parses presentation format ("www.example.nl" or "www.example.nl.").
  /// Returns nullopt for empty labels, over-long labels/names, or characters
  /// outside [-_a-zA-Z0-9] (we do not need escapes for this study).
  static std::optional<Name> Parse(std::string_view text);

  /// Builds from explicit labels, most specific first (["www","example","nl"]).
  /// Throws std::invalid_argument on over-long labels or names.
  static Name FromLabels(const std::vector<std::string>& labels);

  /// Incremental construction for wire decoding; defined after Name.
  class Builder;

  [[nodiscard]] bool IsRoot() const { return label_count_ == 0; }
  [[nodiscard]] std::size_t LabelCount() const { return label_count_; }
  /// The i-th label, most specific first. O(i) walk over the flat bytes.
  [[nodiscard]] std::string_view Label(std::size_t i) const
      CLOUDDNS_LIFETIMEBOUND;

  /// The flat label bytes: [len][bytes]... most specific first, no root
  /// byte. This is what the wire writer emits and what suffix-keyed caches
  /// hash slices of.
  [[nodiscard]] const std::uint8_t* FlatData() const CLOUDDNS_LIFETIMEBOUND {
    return flat();
  }
  [[nodiscard]] std::size_t FlatSize() const { return size_; }
  /// The precomputed case-insensitive FNV-1a hash over the flat bytes.
  [[nodiscard]] std::uint64_t CachedHash() const { return hash_; }
  /// True when the flat bytes live in the inline buffer (tests).
  [[nodiscard]] bool IsInline() const { return size_ <= kInlineCapacity; }

  /// Hashes an arbitrary flat label-byte range the way Name itself is
  /// hashed, so suffix slices of one name can probe Name-keyed tables
  /// without constructing a Name.
  [[nodiscard]] static std::uint64_t HashFlat(const std::uint8_t* data,
                                              std::size_t size);
  /// Case-insensitive equality of two flat label-byte ranges.
  [[nodiscard]] static bool FlatEquals(const std::uint8_t* a,
                                       const std::uint8_t* b,
                                       std::size_t size);

  /// Wire-format length: 1 byte per label length + label bytes + root byte.
  [[nodiscard]] std::size_t WireLength() const { return size_ + 1u; }

  /// The name with the most specific label removed; parent of root is root.
  [[nodiscard]] Name Parent() const;

  /// Keeps only the `count` least specific labels ("a.b.c.d".Suffix(2) ==
  /// "c.d"). Suffix(0) is the root.
  [[nodiscard]] Name Suffix(std::size_t count) const;

  /// Prepends a label, making the name one level more specific.
  /// Throws std::invalid_argument if the result would exceed wire limits.
  [[nodiscard]] Name Child(std::string_view label) const;

  /// True when this name equals `ancestor` or is underneath it.
  /// Every name is a subdomain of the root.
  [[nodiscard]] bool IsSubdomainOf(const Name& ancestor) const;

  /// Case-insensitive equality/ordering (canonical DNS ordering by label,
  /// least significant label first, per RFC 4034 §6.1).
  [[nodiscard]] bool Equals(const Name& other) const;
  [[nodiscard]] int Compare(const Name& other) const;

  /// Appends this name's canonical sort key to `out`: its labels right to
  /// left, each byte lowercased plus one as a big-endian 16-bit unit, and
  /// a 0 unit closing each label; 2 * FlatSize() bytes in all. Keys
  /// compare bytewise (std::string's compare, i.e. memcmp) exactly as
  /// Compare() orders their names, so a sort of many names builds each
  /// key once instead of re-walking both names' labels per comparison.
  void AppendCanonicalKey(std::string& out) const;

  /// Presentation format without trailing dot ("example.nl"); root is ".".
  [[nodiscard]] std::string ToString() const;

  /// Lowercased presentation form, for use as a canonical map key.
  [[nodiscard]] std::string ToKey() const;

  /// FNV-1a from `seed` over the bytes of ToKey() ("www.example.nl", the
  /// root is "."), streamed off the flat labels so no string is built.
  [[nodiscard]] std::uint64_t PresentationHash(
      std::uint64_t seed = base::kShortFnvBasis) const;

  friend bool operator==(const Name& a, const Name& b) { return a.Equals(b); }
  friend bool operator<(const Name& a, const Name& b) {
    return a.Compare(b) < 0;
  }

 private:
  // The heap pointer is memcpy'd into the inline byte array rather than
  // stored in a union so that its 8-byte alignment does not pad the name
  // past one cache line.
  [[nodiscard]] std::uint8_t* HeapPtr() const {
    std::uint8_t* p;
    std::memcpy(&p, storage_, sizeof(p));
    return p;
  }
  void SetHeapPtr(std::uint8_t* p) { std::memcpy(storage_, &p, sizeof(p)); }
  [[nodiscard]] const std::uint8_t* flat() const {
    return size_ > kInlineCapacity ? HeapPtr() : storage_;
  }
  void ReleaseHeap() {
    if (size_ > kInlineCapacity) delete[] HeapPtr();
  }
  void CopyFrom(const Name& other);
  void MoveFrom(Name& other) noexcept;
  /// Appends one label (length + bytes) without validation beyond what the
  /// caller guarantees; promotes to heap storage when needed.
  void AppendLabelUnchecked(const std::uint8_t* bytes, std::uint8_t len);
  /// Appends a pre-validated flat byte range holding `labels` whole labels.
  void AppendFlatUnchecked(const std::uint8_t* bytes, std::size_t size,
                           std::size_t labels);
  void RecomputeHash() { hash_ = HashFlat(flat(), size_); }
  /// Fills `offsets` with the flat offset of each label; returns the count.
  std::size_t LabelOffsets(std::uint8_t* offsets) const;

  std::uint64_t hash_ = base::kShortFnvBasis;
  std::uint8_t size_ = 0;
  std::uint8_t label_count_ = 0;
  /// Inline flat bytes, or (when size_ > kInlineCapacity) the heap pointer.
  /// Zero-initialized so the (size_-guarded) heap-pointer read in
  /// ReleaseHeap is never a read of indeterminate bytes — GCC's
  /// -Wmaybe-uninitialized cannot always prove the guard in Debug builds.
  std::uint8_t storage_[kInlineCapacity] = {};
};

static_assert(sizeof(Name) == 64, "Name should stay one cache line");

/// Incremental Name construction for wire decoding: labels are appended in
/// most-specific-first order, exactly the order they appear on the wire.
/// Append() rejects invalid label lengths and wire-length overflow; Take()
/// finalizes the hash and leaves the builder reusable (root name).
class Name::Builder {
 public:
  [[nodiscard]] bool Append(const std::uint8_t* bytes, std::size_t len);
  [[nodiscard]] Name Take();

 private:
  Name name_;
};

struct NameHash {
  std::size_t operator()(const Name& name) const noexcept {
    return static_cast<std::size_t>(name.CachedHash());
  }
};

struct NameEqual {
  bool operator()(const Name& a, const Name& b) const noexcept {
    return a.Equals(b);
  }
};

}  // namespace clouddns::dns
