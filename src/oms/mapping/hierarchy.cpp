#include "oms/mapping/hierarchy.hpp"

#include <bit>

#include "oms/util/sequence.hpp"

namespace oms {

SystemHierarchy::SystemHierarchy(std::vector<std::int64_t> extents,
                                 std::vector<std::int64_t> distances)
    : extents_(std::move(extents)), distances_(std::move(distances)) {
  OMS_ASSERT_MSG(!extents_.empty(), "hierarchy needs at least one level");
  OMS_ASSERT_MSG(extents_.size() == distances_.size(),
                 "one distance per hierarchy level");
  prefix_products_.resize(extents_.size() + 1);
  prefix_products_[0] = 1;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    OMS_ASSERT_MSG(extents_[i] >= 1, "hierarchy extents must be >= 1");
    OMS_ASSERT_MSG(distances_[i] > 0, "hierarchy distances must be positive");
    prefix_products_[i + 1] = prefix_products_[i] * extents_[i];
  }
  const std::int64_t k = prefix_products_.back();
  OMS_ASSERT_MSG(k >= 1 && k <= (std::int64_t{1} << 30), "unreasonable PE count");
  num_pes_ = static_cast<BlockId>(k);

  distance_by_width_.assign(1, 0);
  std::vector<unsigned> digit_bits(extents_.size());
  for (std::size_t j = 0; j < extents_.size(); ++j) {
    digit_bits[j] = static_cast<unsigned>(
        std::bit_width(static_cast<std::uint64_t>(extents_[j] - 1)));
    distance_by_width_.insert(distance_by_width_.end(), digit_bits[j], distances_[j]);
  }
  OMS_ASSERT(distance_by_width_.size() <= 61);
  keys_.resize(static_cast<std::size_t>(k));
  for (std::int64_t p = 0; p < k; ++p) {
    std::uint64_t key = 0;
    unsigned shift = 0;
    std::int64_t rest = p;
    for (std::size_t j = 0; j < extents_.size(); ++j) {
      key |= static_cast<std::uint64_t>(rest % extents_[j]) << shift;
      rest /= extents_[j];
      shift += digit_bits[j];
    }
    keys_[static_cast<std::size_t>(p)] = key;
  }
}

SystemHierarchy SystemHierarchy::parse(const std::string& extents,
                                       const std::string& distances) {
  return SystemHierarchy(parse_sequence(extents), parse_sequence(distances));
}

std::vector<std::int64_t> SystemHierarchy::extents_top_down() const {
  return {extents_.rbegin(), extents_.rend()};
}

std::string SystemHierarchy::to_string() const {
  return "S=" + format_sequence(extents_) + " D=" + format_sequence(distances_);
}

} // namespace oms
