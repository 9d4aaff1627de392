#include "src/text/alphabet.h"

#include <gtest/gtest.h>

#include <string>

#include "src/text/normalize.h"

namespace cbvlink {
namespace {

TEST(AlphabetTest, UppercaseHas26Symbols) {
  const Alphabet& s = Alphabet::Uppercase();
  EXPECT_EQ(s.size(), 26u);
  EXPECT_EQ(s.Order('A'), 0);
  EXPECT_EQ(s.Order('Z'), 25);
  EXPECT_EQ(s.Order('J'), 9);
  EXPECT_EQ(s.Order('O'), 14);
  EXPECT_FALSE(s.Contains('_'));
  EXPECT_FALSE(s.Contains('a'));
  EXPECT_FALSE(s.Contains('0'));
}

TEST(AlphabetTest, UppercasePaddedHas27Symbols) {
  const Alphabet& s = Alphabet::UppercasePadded();
  EXPECT_EQ(s.size(), 27u);
  EXPECT_TRUE(s.Contains(kPadChar));
  EXPECT_EQ(s.Order(kPadChar), 26);
}

TEST(AlphabetTest, AlphanumericCoversDigitsAndSpace) {
  const Alphabet& s = Alphabet::Alphanumeric();
  EXPECT_EQ(s.size(), 38u);  // 26 letters + 10 digits + space + pad
  EXPECT_TRUE(s.Contains('0'));
  EXPECT_TRUE(s.Contains('9'));
  EXPECT_TRUE(s.Contains(' '));
  EXPECT_TRUE(s.Contains(kPadChar));
}

TEST(AlphabetTest, CustomAlphabetKeepsFirstOccurrence) {
  const Alphabet s("ABA");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.Order('A'), 0);
  EXPECT_EQ(s.Order('B'), 1);
}

TEST(AlphabetTest, OrderOfMissingSymbolIsNegative) {
  const Alphabet s("XY");
  EXPECT_EQ(s.Order('Z'), -1);
  EXPECT_EQ(s.Order('\0'), -1);
}

TEST(AlphabetTest, NumQGramsMatchesPaperSizes) {
  // The paper's bigram vector size m = 26^2 = 676 (Figure 3 uses m = 676).
  EXPECT_EQ(Alphabet::Uppercase().NumQGrams(2), 676u);
  EXPECT_EQ(Alphabet::Uppercase().NumQGrams(3), 17576u);
  EXPECT_EQ(Alphabet::UppercasePadded().NumQGrams(2), 729u);
  EXPECT_EQ(Alphabet::Uppercase().NumQGrams(0), 1u);
}

TEST(NormalizeTest, UppercasesAndFilters) {
  EXPECT_EQ(Normalize("Jones", Alphabet::Uppercase()), "JONES");
  EXPECT_EQ(Normalize("o'neil-smith", Alphabet::Uppercase()), "ONEILSMITH");
  EXPECT_EQ(Normalize("123 Main St", Alphabet::Uppercase()), "MAINST");
  EXPECT_EQ(Normalize("123 Main St", Alphabet::Alphanumeric()),
            "123 MAIN ST");
}

TEST(NormalizeTest, PaddingCharIsNeverEmitted) {
  EXPECT_EQ(Normalize("A_B", Alphabet::UppercasePadded()), "AB");
}

TEST(NormalizeTest, EmptyAndAllFiltered) {
  EXPECT_EQ(Normalize("", Alphabet::Uppercase()), "");
  EXPECT_EQ(Normalize("!!!", Alphabet::Uppercase()), "");
}

TEST(NormalizeTest, NormalizedSizeIsTheNormalizedLength) {
  // Normalize() decides byte by byte, so every single byte plus one mixed
  // string covers NormalizedSize() on each alphabet.
  const Alphabet* alphabets[] = {&Alphabet::Uppercase(),
                                 &Alphabet::UppercasePadded(),
                                 &Alphabet::Alphanumeric()};
  for (const Alphabet* alphabet : alphabets) {
    for (int b = 0; b < 256; ++b) {
      const std::string raw(1, static_cast<char>(b));
      EXPECT_EQ(NormalizedSize(raw, *alphabet),
                Normalize(raw, *alphabet).size())
          << "alphabet=" << alphabet->symbols() << " byte=" << b;
    }
    const std::string mixed = "o'Neil_Smith 42\xc3\xa9";
    EXPECT_EQ(NormalizedSize(mixed, *alphabet),
              Normalize(mixed, *alphabet).size());
  }
  EXPECT_EQ(NormalizedSize("", Alphabet::Uppercase()), 0u);
}

}  // namespace
}  // namespace cbvlink
