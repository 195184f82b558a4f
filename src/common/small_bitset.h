// A dynamic bitset optimized for the common small case: bits 0..63 live in
// an inline word so per-MExpr rule masks stay allocation-free for typical
// rule sets, while larger rule sets (>64 transformation rules) spill to a
// heap vector instead of silently aliasing indices.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prairie::common {

/// \brief Grow-on-demand bitset with an inline first word.
///
/// Unset bits read as false at any index, so callers never need to size the
/// set up front; `Set` grows the heap storage as needed.
class SmallBitset {
 public:
  SmallBitset() = default;

  /// Returns bit `i` (false for any index never set).
  bool Test(int i) const {
    if (i < 64) return (inline_ & (1ull << i)) != 0;
    const std::size_t word = static_cast<std::size_t>(i - 64) >> 6;
    if (word >= rest_.size()) return false;
    return (rest_[word] & (1ull << ((i - 64) & 63))) != 0;
  }

  /// Sets bit `i`, growing heap storage if `i >= 64`.
  void Set(int i) {
    if (i < 64) {
      inline_ |= 1ull << i;
      return;
    }
    const std::size_t word = static_cast<std::size_t>(i - 64) >> 6;
    if (word >= rest_.size()) rest_.resize(word + 1, 0);
    rest_[word] |= 1ull << ((i - 64) & 63);
  }

  /// Clears all bits (keeps heap capacity).
  void Reset() {
    inline_ = 0;
    for (uint64_t& w : rest_) w = 0;
  }

  /// True iff no bit is set.
  bool None() const {
    if (inline_ != 0) return false;
    for (uint64_t w : rest_) {
      if (w != 0) return false;
    }
    return true;
  }

 private:
  uint64_t inline_ = 0;
  std::vector<uint64_t> rest_;
};

}  // namespace prairie::common
