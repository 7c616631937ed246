// Binary radix trie keyed by CIDR prefixes with longest-prefix-match lookup.
//
// One trie holds one address family; PrefixMap below wraps a v4 and a v6 trie
// behind a family-agnostic interface. Nodes are stored contiguously in a
// vector and referenced by index, which keeps the structure cache-friendly
// and trivially copyable/movable.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.h"
#include "net/prefix.h"

namespace clouddns::net {

template <typename Value>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.push_back(Node{}); }

  /// Inserts (or overwrites) the value for an exact prefix.
  void Insert(const Prefix& prefix, Value value) {
    std::size_t node = 0;
    for (int depth = 0; depth < prefix.length(); ++depth) {
      bool bit = prefix.address().bit(depth);
      std::uint32_t child = bit ? nodes_[node].one : nodes_[node].zero;
      if (child == kNone) {
        child = static_cast<std::uint32_t>(nodes_.size());
        // Write the link before push_back: the reference into nodes_ must
        // not be held across a potential reallocation.
        (bit ? nodes_[node].one : nodes_[node].zero) = child;
        nodes_.push_back(Node{});
      }
      node = child;
    }
    if (!nodes_[node].value.has_value()) ++size_;
    nodes_[node].value = std::move(value);
  }

  /// Longest-prefix match: value of the most specific prefix containing
  /// `addr`, or nullopt when no prefix matches.
  [[nodiscard]] std::optional<Value> Lookup(const IpAddress& addr) const {
    std::optional<Value> best;
    std::size_t node = 0;
    int width = addr.bit_width();
    for (int depth = 0;; ++depth) {
      if (nodes_[node].value.has_value()) best = nodes_[node].value;
      if (depth >= width) break;
      std::uint32_t child =
          addr.bit(depth) ? nodes_[node].one : nodes_[node].zero;
      if (child == kNone) break;
      node = child;
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    std::uint32_t zero = kNone;
    std::uint32_t one = kNone;
    std::optional<Value> value;
  };

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

/// Family-agnostic longest-prefix-match map.
template <typename Value>
class PrefixMap {
 public:
  void Insert(const Prefix& prefix, Value value) {
    if (prefix.is_v4()) {
      v4_.Insert(prefix, std::move(value));
    } else {
      v6_.Insert(prefix, std::move(value));
    }
  }

  [[nodiscard]] std::optional<Value> Lookup(const IpAddress& addr) const {
    return addr.is_v4() ? v4_.Lookup(addr) : v6_.Lookup(addr);
  }

  [[nodiscard]] std::size_t size() const { return v4_.size() + v6_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  PrefixTrie<Value> v4_;
  PrefixTrie<Value> v6_;
};

}  // namespace clouddns::net
