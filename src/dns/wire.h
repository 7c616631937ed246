// Bounds-checked DNS wire-format primitives.
//
// WireWriter appends big-endian integers, raw bytes, and domain names with
// RFC 1035 §4.1.4 compression pointers. WireReader is the mirror: every read
// is bounds-checked and returns false on malformed input instead of throwing,
// because the authoritative server must survive arbitrary junk queries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dns/name.h"

namespace clouddns::dns {

using WireBuffer = std::vector<std::uint8_t>;

namespace detail {

/// Compression state for one in-flight message encode: an open-addressing
/// table of (suffix hash -> wire offset of its first occurrence). Entries
/// are invalidated wholesale by bumping the epoch, so one thread-local
/// table serves every message a thread encodes without clearing or
/// reallocating between messages. Matches are verified against the wire
/// bytes already written (following pointers), so hash collisions cannot
/// corrupt the encoding.
struct SuffixTable {
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t epoch = 0;
    std::uint16_t offset = 0;
  };

  std::vector<Slot> slots;
  std::uint32_t epoch = 0;  ///< Slots with a matching epoch are live.
  std::size_t count = 0;    ///< Live entries in the current epoch.
  bool busy = false;        ///< Claimed by a live WireWriter.

  void NewEpoch();
  /// Finds a previously recorded occurrence of the suffix whose flat label
  /// bytes are [suffix, suffix_end); `wire` is the message written so far.
  [[nodiscard]] bool Find(std::uint64_t hash, const WireBuffer& wire,
                          const std::uint8_t* suffix,
                          const std::uint8_t* suffix_end,
                          std::uint16_t& offset_out) const;
  void Insert(std::uint64_t hash, std::uint16_t offset);

 private:
  void Grow();
};

}  // namespace detail

class WireWriter {
 public:
  explicit WireWriter(WireBuffer& out);
  ~WireWriter();
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void WriteU8(std::uint8_t value) { out_.push_back(value); }
  void WriteU16(std::uint16_t value);
  void WriteU32(std::uint32_t value);
  void WriteBytes(const std::uint8_t* data, std::size_t size);
  void WriteBytes(const std::vector<std::uint8_t>& data) {
    WriteBytes(data.data(), data.size());
  }

  /// Appends `size` zero bytes and returns them, for a caller that fills
  /// them in place. The span is valid until the next write.
  [[nodiscard]] std::span<std::uint8_t> Extend(std::size_t size);

  /// Writes `name`, emitting a compression pointer to an earlier occurrence
  /// of any suffix already written through this writer. Set `compress` to
  /// false inside RDATA types where compression is forbidden (RFC 3597).
  void WriteName(const Name& name, bool compress = true);

  /// Patches a previously written 16-bit field (e.g. RDLENGTH back-fill).
  void PatchU16(std::size_t offset, std::uint16_t value);

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  WireBuffer& out_;
  // Offsets beyond 0x3fff cannot be pointer targets and are not recorded.
  // Usually the thread-local table; a writer constructed while another
  // writer on the same thread is live gets its own (cold path).
  detail::SuffixTable* table_;
  std::unique_ptr<detail::SuffixTable> owned_table_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const WireBuffer& buffer)
      : WireReader(buffer.data(), buffer.size()) {}

  [[nodiscard]] bool ReadU8(std::uint8_t& value);
  [[nodiscard]] bool ReadU16(std::uint16_t& value);
  [[nodiscard]] bool ReadU32(std::uint32_t& value);
  /// Replaces `out`'s contents with the next `count` bytes, reusing its
  /// capacity.
  [[nodiscard]] bool ReadBytes(std::size_t count,
                               std::vector<std::uint8_t>& out);
  /// Copies the next `count` bytes into caller-owned storage.
  [[nodiscard]] bool ReadBytes(std::size_t count, std::uint8_t* out);

  /// Reads a (possibly compressed) name starting at the cursor. Follows
  /// pointers with a hop limit so crafted loops cannot hang the parser.
  [[nodiscard]] bool ReadName(Name& name);

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }
  [[nodiscard]] bool AtEnd() const { return offset_ == size_; }

  /// Moves the cursor; false if the target is out of range.
  [[nodiscard]] bool Seek(std::size_t offset);
  [[nodiscard]] bool Skip(std::size_t count) { return Seek(offset_ + count); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace clouddns::dns
