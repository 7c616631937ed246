#include "dns/wire.h"

#include <cstring>

namespace clouddns::dns {

namespace {

[[nodiscard]] constexpr std::uint8_t LowerByte(std::uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a') : c;
}

/// Case-insensitively compares the name suffix whose flat label bytes are
/// [suffix, suffix_end) against the name encoded in `wire` at `offset`,
/// following compression pointers. Offsets only ever come from names this
/// writer finished encoding, so the walk terminates; the bounds checks are
/// belt-and-braces.
[[nodiscard]] bool MatchesWireSuffix(const WireBuffer& wire,
                                     std::size_t offset,
                                     const std::uint8_t* suffix,
                                     const std::uint8_t* suffix_end) {
  std::size_t cursor = offset;
  for (;;) {
    if (cursor >= wire.size()) return false;
    const std::uint8_t len = wire[cursor];
    if ((len & 0xc0) == 0xc0) {
      if (cursor + 1 >= wire.size()) return false;
      cursor = (static_cast<std::size_t>(len & 0x3f) << 8) | wire[cursor + 1];
      continue;
    }
    if (len == 0) return suffix == suffix_end;
    if (suffix == suffix_end) return false;
    if (*suffix != len) return false;
    if (cursor + 1 + len > wire.size()) return false;
    // Names repeat with the same spelling far more often than in another
    // case, so an exact compare settles most labels.
    if (std::memcmp(wire.data() + cursor + 1, suffix + 1, len) != 0) {
      for (std::size_t j = 0; j < len; ++j) {
        if (LowerByte(wire[cursor + 1 + j]) != LowerByte(suffix[1 + j])) {
          return false;
        }
      }
    }
    suffix += 1 + len;
    cursor += 1 + len;
  }
}

// One compression table per thread: a new epoch per WireWriter makes prior
// entries stale without touching them, so steady-state encodes never clear
// or reallocate the table.
thread_local detail::SuffixTable tls_suffix_table;

constexpr std::size_t kInitialSlots = 256;  // power of two

}  // namespace

namespace detail {

void SuffixTable::NewEpoch() {
  if (slots.empty()) {
    slots.resize(kInitialSlots);
  }
  count = 0;
  if (++epoch == 0) {
    // Epoch wrapped: stale slots from epoch 0 would look live again.
    for (Slot& slot : slots) slot.epoch = 0;
    epoch = 1;
  }
}

bool SuffixTable::Find(std::uint64_t hash, const WireBuffer& wire,
                       const std::uint8_t* suffix,
                       const std::uint8_t* suffix_end,
                       std::uint16_t& offset_out) const {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t idx = static_cast<std::size_t>(hash) & mask;
       slots[idx].epoch == epoch; idx = (idx + 1) & mask) {
    if (slots[idx].hash == hash &&
        MatchesWireSuffix(wire, slots[idx].offset, suffix, suffix_end)) {
      offset_out = slots[idx].offset;
      return true;
    }
  }
  return false;
}

void SuffixTable::Insert(std::uint64_t hash, std::uint16_t offset) {
  if ((count + 1) * 2 > slots.size()) Grow();
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash) & mask;
  while (slots[idx].epoch == epoch) idx = (idx + 1) & mask;
  slots[idx] = Slot{hash, epoch, offset};
  ++count;
}

void SuffixTable::Grow() {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots.size() - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch) continue;
    std::size_t idx = static_cast<std::size_t>(slot.hash) & mask;
    while (slots[idx].epoch == epoch) idx = (idx + 1) & mask;
    slots[idx] = slot;
  }
}

}  // namespace detail

WireWriter::WireWriter(WireBuffer& out) : out_(out) {
  if (tls_suffix_table.busy) {
    owned_table_ = std::make_unique<detail::SuffixTable>();
    table_ = owned_table_.get();
  } else {
    tls_suffix_table.busy = true;
    table_ = &tls_suffix_table;
  }
  table_->NewEpoch();
}

WireWriter::~WireWriter() {
  if (table_ == &tls_suffix_table) tls_suffix_table.busy = false;
}

// One append per field: byte-wise push_backs each reload the vector's end
// pointer behind the byte just stored, which costs more than the copy.
void WireWriter::WriteU16(std::uint16_t value) {
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(value >> 8),
                                 static_cast<std::uint8_t>(value & 0xff)};
  WriteBytes(bytes, sizeof(bytes));
}

void WireWriter::WriteU32(std::uint32_t value) {
  const std::uint8_t bytes[4] = {static_cast<std::uint8_t>(value >> 24),
                                 static_cast<std::uint8_t>(value >> 16),
                                 static_cast<std::uint8_t>(value >> 8),
                                 static_cast<std::uint8_t>(value & 0xff)};
  WriteBytes(bytes, sizeof(bytes));
}

void WireWriter::WriteBytes(const std::uint8_t* data, std::size_t size) {
  out_.insert(out_.end(), data, data + size);
}

std::span<std::uint8_t> WireWriter::Extend(std::size_t size) {
  const std::size_t at = out_.size();
  out_.resize(at + size);
  return {out_.data() + at, size};
}

void WireWriter::WriteName(const Name& name, bool compress) {
  // Walk the labels; for every suffix check whether it was written before,
  // and if so emit a 2-byte pointer and stop. First occurrences at offsets
  // that can still be pointer targets are recorded.
  const std::uint8_t* p = name.FlatData();
  const std::uint8_t* const end = p + name.FlatSize();
  const std::size_t label_count = name.LabelCount();
  for (std::size_t i = 0; i < label_count; ++i) {
    if (compress) {
      // The whole name's hash is the one Name caches.
      const std::uint64_t hash =
          i == 0 ? name.CachedHash()
                 : Name::HashFlat(p, static_cast<std::size_t>(end - p));
      std::uint16_t target = 0;
      if (table_->Find(hash, out_, p, end, target)) {
        WriteU16(static_cast<std::uint16_t>(0xc000u | target));
        return;
      }
      if (out_.size() <= 0x3fff) {
        table_->Insert(hash, static_cast<std::uint16_t>(out_.size()));
      }
    }
    WriteBytes(p, 1u + *p);  // a flat label is its wire form
    p += 1 + *p;
  }
  WriteU8(0);  // root
}

void WireWriter::PatchU16(std::size_t offset, std::uint16_t value) {
  out_[offset] = static_cast<std::uint8_t>(value >> 8);
  out_[offset + 1] = static_cast<std::uint8_t>(value & 0xff);
}

bool WireReader::ReadU8(std::uint8_t& value) {
  if (remaining() < 1) return false;
  value = data_[offset_++];
  return true;
}

bool WireReader::ReadU16(std::uint16_t& value) {
  if (remaining() < 2) return false;
  value = static_cast<std::uint16_t>((data_[offset_] << 8) |
                                     data_[offset_ + 1]);
  offset_ += 2;
  return true;
}

bool WireReader::ReadU32(std::uint32_t& value) {
  if (remaining() < 4) return false;
  value = (static_cast<std::uint32_t>(data_[offset_]) << 24) |
          (static_cast<std::uint32_t>(data_[offset_ + 1]) << 16) |
          (static_cast<std::uint32_t>(data_[offset_ + 2]) << 8) |
          static_cast<std::uint32_t>(data_[offset_ + 3]);
  offset_ += 4;
  return true;
}

bool WireReader::ReadBytes(std::size_t count, std::vector<std::uint8_t>& out) {
  if (remaining() < count) return false;
  out.assign(data_ + offset_, data_ + offset_ + count);
  offset_ += count;
  return true;
}

bool WireReader::ReadBytes(std::size_t count, std::uint8_t* out) {
  if (remaining() < count) return false;
  std::memcpy(out, data_ + offset_, count);
  offset_ += count;
  return true;
}

bool WireReader::ReadName(Name& name) {
  Name::Builder builder;
  std::size_t cursor = offset_;
  std::size_t end_of_name = 0;  // where the cursor resumes (set at first jump)
  bool jumped = false;
  std::size_t last_target = offset_;

  for (;;) {
    if (cursor >= size_) return false;
    std::uint8_t len = data_[cursor];
    if ((len & 0xc0) == 0xc0) {
      if (cursor + 1 >= size_) return false;
      std::size_t target = static_cast<std::size_t>((len & 0x3f) << 8) |
                           data_[cursor + 1];
      // RFC 1035 §4.1.4: a pointer references a *prior* occurrence.
      // Requiring each target to be strictly earlier than the last makes
      // loops and forward references impossible by construction, and
      // matches both what WriteName emits and what the wire auditor
      // (dns/audit.h) enforces.
      if (target >= last_target) return false;
      if (!jumped) {
        end_of_name = cursor + 2;
        jumped = true;
      }
      last_target = target;
      cursor = target;
      continue;
    }
    if ((len & 0xc0) != 0) return false;  // reserved label types
    ++cursor;
    if (len == 0) break;
    if (cursor + len > size_) return false;
    // Labels read off the wire are length-delimited so any byte value is
    // legal here; the builder only enforces the length limits (and rejects
    // names over 255 octets, like the old total-length check).
    if (!builder.Append(data_ + cursor, len)) return false;
    cursor += len;
  }

  offset_ = jumped ? end_of_name : cursor;
  name = builder.Take();
  return true;
}

bool WireReader::Seek(std::size_t offset) {
  if (offset > size_) return false;
  offset_ = offset;
  return true;
}

}  // namespace clouddns::dns
