// A hash-to-slot index shared by every Name-keyed table in the tree: the
// resolver's caches and the zone image's owner table. Callers keep their
// entries in their own arrays and resolve collisions themselves, so the
// table stores only (hash, 32-bit index) pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace clouddns::base {

/// Open-addressing (linear probe, backward-shift deletion) index: maps a
/// 64-bit hash to a caller-owned 32-bit slot index. The caller resolves
/// hash collisions through the `eq` predicate, which receives a candidate
/// value. Starts empty and doubles at 50% load, so the thousands of
/// per-engine caches in a scenario stay tiny until used.
class OpenTable {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  template <class Eq>
  [[nodiscard]] std::uint32_t Find(std::uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNil;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t idx = static_cast<std::size_t>(hash) & mask;
         slots_[idx].value != kNil; idx = (idx + 1) & mask) {
      if (slots_[idx].hash == hash && eq(slots_[idx].value)) {
        return slots_[idx].value;
      }
    }
    return kNil;
  }

  /// The (hash, value) pair must not already be present.
  void Insert(std::uint64_t hash, std::uint32_t value) {
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hash) & mask;
    while (slots_[idx].value != kNil) idx = (idx + 1) & mask;
    slots_[idx] = Slot{hash, value};
    ++count_;
  }

  /// Removes the entry whose value satisfies `eq`; false if absent.
  template <class Eq>
  bool Erase(std::uint64_t hash, Eq&& eq) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t idx = static_cast<std::size_t>(hash) & mask;
         slots_[idx].value != kNil; idx = (idx + 1) & mask) {
      if (slots_[idx].hash != hash || !eq(slots_[idx].value)) continue;
      // Backward-shift deletion keeps probe chains intact without
      // tombstones: slide later entries into the hole while their ideal
      // position is at or before it.
      std::size_t hole = idx;
      for (std::size_t next = (hole + 1) & mask; slots_[next].value != kNil;
           next = (next + 1) & mask) {
        const std::size_t ideal =
            static_cast<std::size_t>(slots_[next].hash) & mask;
        if (((next - ideal) & mask) >= ((next - hole) & mask)) {
          slots_[hole] = slots_[next];
          hole = next;
        }
      }
      slots_[hole].value = kNil;
      --count_;
      return true;
    }
    return false;
  }

  /// Replaces every stored value v with new_value[v], each entry keeping
  /// its slot: for a caller that reorders the array its values index.
  void Renumber(std::span<const std::uint32_t> new_value) {
    for (Slot& slot : slots_) {
      if (slot.value != kNil) slot.value = new_value[slot.value];
    }
  }

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t value = kNil;
  };

  void Grow() {
    const std::size_t new_size = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    const std::size_t mask = new_size - 1;
    for (const Slot& slot : old) {
      if (slot.value == kNil) continue;
      std::size_t idx = static_cast<std::size_t>(slot.hash) & mask;
      while (slots_[idx].value != kNil) idx = (idx + 1) & mask;
      slots_[idx] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace clouddns::base
