/// \file hierarchy.hpp
/// \brief The homogeneous hierarchical topology of the process mapping
///        problem: S = a1:a2:...:al (a1 cores per processor, a2 processors
///        per node, ...) with level distances D = d1:d2:...:dl.
///
/// PEs are numbered 0..k-1 in mixed radix over (a1, ..., al): PE p sits in
/// core p mod a1 of processor (p / a1) mod a2 of node (p / (a1*a2)) mod a3,
/// and so on. The distance between two distinct PEs is d_j where j is the
/// smallest level whose module contains both.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class SystemHierarchy {
public:
  /// \param extents   a1..al, innermost (cheapest) level first; each >= 2
  ///                  except that a trailing 1 is tolerated (the paper's
  ///                  S = 4:16:r sweep includes r = 1).
  /// \param distances d1..dl, one per level, strictly increasing makes
  ///                  physical sense but is not required.
  SystemHierarchy(std::vector<std::int64_t> extents,
                  std::vector<std::int64_t> distances);

  /// Parse from the paper's notation, e.g. ("4:16:2", "1:10:100").
  [[nodiscard]] static SystemHierarchy parse(const std::string& extents,
                                             const std::string& distances);

  [[nodiscard]] std::size_t num_levels() const noexcept { return extents_.size(); }
  [[nodiscard]] BlockId num_pes() const noexcept { return num_pes_; }
  [[nodiscard]] const std::vector<std::int64_t>& extents() const noexcept {
    return extents_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& distances() const noexcept {
    return distances_;
  }

  /// Number of PEs inside one level-i module (prefix product a1*...*ai).
  /// module_size(0) == 1 (a single PE).
  [[nodiscard]] std::int64_t module_size(std::size_t level) const noexcept {
    OMS_HEAVY_ASSERT(level <= extents_.size());
    return prefix_products_[level];
  }

  /// Communication distance between PEs x and y (0 if x == y, else d_j for
  /// the smallest level j whose module contains both). O(1) and free of
  /// divisions: the highest bit in which the two packed keys differ lies in
  /// the digit of the outermost level at which x and y part.
  [[nodiscard]] std::int64_t distance(BlockId x, BlockId y) const noexcept {
    OMS_HEAVY_ASSERT(x >= 0 && x < num_pes_ && y >= 0 && y < num_pes_);
    const std::uint64_t diff = keys_[static_cast<std::size_t>(x)] ^
                               keys_[static_cast<std::size_t>(y)];
    return distance_by_width_[static_cast<std::size_t>(std::bit_width(diff))];
  }

  /// Extents outermost-first (al, ..., a1): the order in which the online
  /// multi-section splits the stream (paper Section 3.1 assigns the al-way
  /// top layer first).
  [[nodiscard]] std::vector<std::int64_t> extents_top_down() const;

  [[nodiscard]] std::string to_string() const;

private:
  std::vector<std::int64_t> extents_;         // a1..al (innermost first)
  std::vector<std::int64_t> distances_;       // d1..dl
  std::vector<std::int64_t> prefix_products_; // size l+1; [i] = a1*...*ai
  /// Per PE, its mixed-radix digits packed into one word: digit j (level
  /// j+1) takes bit_width(a_j - 1) bits, innermost digit lowest. At most 60
  /// bits in total, since every extent >= 2 contributes at most 2 log2(a_j)
  /// bits and k <= 2^30.
  std::vector<std::uint64_t> keys_;
  /// Indexed by bit_width(key[x] ^ key[y]): [0] = 0 (same PE), otherwise the
  /// distance of the level owning the highest differing bit.
  std::vector<std::int64_t> distance_by_width_;
  BlockId num_pes_ = 0;
};

} // namespace oms
