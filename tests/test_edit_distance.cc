#include "src/metrics/edit_distance.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/common/random.h"

namespace cbvlink {
namespace {

TEST(EditDistanceTest, IdenticalStrings) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("JONES", "JONES"), 0u);
}

TEST(EditDistanceTest, EmptyVsNonEmpty) {
  EXPECT_EQ(EditDistance("", "ABC"), 3u);
  EXPECT_EQ(EditDistance("ABC", ""), 3u);
}

TEST(EditDistanceTest, PaperExamples) {
  EXPECT_EQ(EditDistance("JONES", "JONAS"), 1u);   // substitute
  EXPECT_EQ(EditDistance("JONES", "JONS"), 1u);    // delete
  EXPECT_EQ(EditDistance("JONES", "JONEAS"), 1u);  // insert
  EXPECT_EQ(EditDistance("SHANNEN", "SHENNEN"), 1u);
  EXPECT_EQ(EditDistance("WASHINGTON", "WASHANGTON"), 1u);
  EXPECT_EQ(EditDistance("JOHN", "JAHN"), 1u);
}

TEST(EditDistanceTest, ClassicCases) {
  EXPECT_EQ(EditDistance("KITTEN", "SITTING"), 3u);
  EXPECT_EQ(EditDistance("FLAW", "LAWN"), 2u);
  EXPECT_EQ(EditDistance("INTENTION", "EXECUTION"), 5u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("ABCDEF", "AXCYEF"),
            EditDistance("AXCYEF", "ABCDEF"));
}

// std::string parameters print by value, so the discovered test names are
// the same on every build (a const char* prints as its address).
class EditDistanceWithinTest
    : public testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EditDistanceWithinTest, AgreesWithFullDistanceAtEveryThreshold) {
  const auto [a, b] = GetParam();
  const size_t d = EditDistance(a, b);
  for (size_t t = 0; t <= d + 2; ++t) {
    EXPECT_EQ(EditDistanceWithin(a, b, t), d <= t)
        << "a=" << a << " b=" << b << " t=" << t << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, EditDistanceWithinTest,
    testing::Values(std::tuple<std::string, std::string>("", ""),
                    std::tuple<std::string, std::string>("", "ABCD"),
                    std::tuple<std::string, std::string>("JONES", "JONAS"),
                    std::tuple<std::string, std::string>("JONES", "JONS"),
                    std::tuple<std::string, std::string>("KITTEN", "SITTING"),
                    std::tuple<std::string, std::string>("INTENTION",
                                                         "EXECUTION"),
                    std::tuple<std::string, std::string>("AAAA", "BBBB"),
                    std::tuple<std::string, std::string>("AB", "BA"),
                    std::tuple<std::string, std::string>("SHORT",
                                                         "MUCHLONGERSTRING")));

TEST(EditDistanceWithinTest, ZeroThresholdIsEquality) {
  EXPECT_TRUE(EditDistanceWithin("SAME", "SAME", 0));
  EXPECT_FALSE(EditDistanceWithin("SAME", "SOME", 0));
}

TEST(EditDistanceWithinTest, LengthGapShortCircuit) {
  EXPECT_FALSE(EditDistanceWithin("A", "ABCDEFG", 3));
  EXPECT_TRUE(EditDistanceWithin("A", "ABCD", 3));
}

TEST(EditDistancePropertyTest, RandomizedAgreementBandedVsFull) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a;
    std::string b;
    const size_t la = rng.Below(12);
    const size_t lb = rng.Below(12);
    for (size_t i = 0; i < la; ++i) {
      a.push_back(static_cast<char>('A' + rng.Below(4)));
    }
    for (size_t i = 0; i < lb; ++i) {
      b.push_back(static_cast<char>('A' + rng.Below(4)));
    }
    const size_t d = EditDistance(a, b);
    const size_t t = rng.Below(8);
    EXPECT_EQ(EditDistanceWithin(a, b, t), d <= t)
        << "a=" << a << " b=" << b;
  }
}

TEST(EditDistancePropertyTest, TriangleInequality) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      const size_t len = rng.Below(10);
      for (size_t i = 0; i < len; ++i) {
        str.push_back(static_cast<char>('A' + rng.Below(3)));
      }
    }
    const size_t dab = EditDistance(s[0], s[1]);
    const size_t dbc = EditDistance(s[1], s[2]);
    const size_t dac = EditDistance(s[0], s[2]);
    EXPECT_LE(dac, dab + dbc);
  }
}

TEST(EditDistancePropertyTest, SingleEditAlwaysDistanceOne) {
  Rng rng(55);
  const std::string base = "ABCDEFGHIJ";
  for (int trial = 0; trial < 100; ++trial) {
    std::string mod = base;
    switch (rng.Below(3)) {
      case 0: {  // substitute with a letter outside the base alphabet
        mod[rng.Below(mod.size())] = static_cast<char>('K' + rng.Below(10));
        break;
      }
      case 1:
        mod.insert(mod.begin() + static_cast<ptrdiff_t>(rng.Below(mod.size() + 1)),
                   'Z');
        break;
      default:
        mod.erase(mod.begin() + static_cast<ptrdiff_t>(rng.Below(mod.size())));
        break;
    }
    EXPECT_EQ(EditDistance(base, mod), 1u) << mod;
  }
}

}  // namespace
}  // namespace cbvlink
