/// \file test_crc32.cpp
/// \brief CRC-32 (IEEE): the standard check value, the empty input, agreement
///        with a byte-at-a-time reference at every length and alignment the
///        slice-by-8 loop distinguishes, and split-invariance of the running
///        update that the snapshot writers rely on.
#include "oms/util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

/// The textbook bitwise CRC-32, independent of the tables under test.
[[nodiscard]] std::uint32_t reference_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

[[nodiscard]] std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<unsigned char>(rng());
  }
  return bytes;
}

TEST(Crc32, CheckValue) {
  const std::string input = "123456789";
  EXPECT_EQ(crc32(input.data(), input.size()), 0xCBF43926U);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0U);
  EXPECT_EQ(crc32_update(crc32_init(), nullptr, 0), crc32_init());
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = random_bytes(96, testing::draw_seed(1));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(crc32(p, len), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, RandomSplitsMatchOneShot) {
  const std::vector<unsigned char> bytes = random_bytes(4096, testing::draw_seed(2));
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  Rng rng(testing::draw_seed(3));
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t crc = crc32_init();
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.next_below(40), bytes.size() - at);
      crc = crc32_update(crc, bytes.data() + at, chunk);
      at += chunk;
    }
    EXPECT_EQ(crc32_final(crc), whole) << "trial " << trial;
  }
}

} // namespace
} // namespace oms
