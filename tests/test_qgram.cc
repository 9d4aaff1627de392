#include "src/text/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "src/text/normalize.h"
#include "tests/qgram_reference.h"

namespace cbvlink {
namespace {

QGramExtractor MakeExtractor(const Alphabet& alphabet, size_t q, bool pad) {
  Result<QGramExtractor> extractor =
      QGramExtractor::Create(alphabet, {.q = q, .pad = pad});
  EXPECT_TRUE(extractor.ok()) << extractor.status().ToString();
  return std::move(extractor).value();
}

TEST(QGramExtractorTest, CreateRejectsZeroQ) {
  Result<QGramExtractor> r =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 0, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QGramExtractorTest, CreateRejectsPaddingWithoutPadSymbol) {
  Result<QGramExtractor> r =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 2, .pad = true});
  EXPECT_FALSE(r.ok());
}

TEST(QGramExtractorTest, PaperFigure1Indexes) {
  // Figure 1: for s = 'JOHN', F('JO') = 248, F('OH') = 371, F('HN') = 195.
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.GramIndex("JO").value(), 248u);
  EXPECT_EQ(e.GramIndex("OH").value(), 371u);
  EXPECT_EQ(e.GramIndex("HN").value(), 195u);
  std::vector<uint64_t> expected{195, 248, 371};
  EXPECT_EQ(e.IndexSet("JOHN"), expected);
}

TEST(QGramExtractorTest, IndexSpaceSizeIs676ForBigrams) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.IndexSpaceSize(), 676u);
}

TEST(QGramExtractorTest, GramsUnpadded) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.Grams("JONES"),
            (std::vector<std::string>{"JO", "ON", "NE", "ES"}));
  EXPECT_TRUE(e.Grams("J").empty());
  EXPECT_TRUE(e.Grams("").empty());
}

TEST(QGramExtractorTest, GramsPadded) {
  const QGramExtractor e = MakeExtractor(Alphabet::UppercasePadded(), 2, true);
  EXPECT_EQ(e.Grams("JONES"),
            (std::vector<std::string>{"_J", "JO", "ON", "NE", "ES", "S_"}));
  EXPECT_EQ(e.Grams("J"), (std::vector<std::string>{"_J", "J_"}));
  EXPECT_TRUE(e.Grams("").empty());
}

TEST(QGramExtractorTest, GramIndexRejectsWrongLengthAndForeignSymbols) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_FALSE(e.GramIndex("JON").ok());
  EXPECT_FALSE(e.GramIndex("J").ok());
  EXPECT_FALSE(e.GramIndex("J9").ok());
}

TEST(QGramExtractorTest, IndexSetSortedUniqueBelowSpace) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  // 'AAAA' has three occurrences of 'AA' but one index.
  EXPECT_EQ(e.IndexSet("AAAA"), (std::vector<uint64_t>{0}));
  const std::vector<uint64_t> set = e.IndexSet("WASHINGTON");
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
  for (uint64_t ind : set) EXPECT_LT(ind, e.IndexSpaceSize());
}

TEST(QGramExtractorTest, CountGramsMatchesGramsSize) {
  for (const bool pad : {false, true}) {
    const QGramExtractor e = MakeExtractor(
        pad ? Alphabet::UppercasePadded() : Alphabet::Uppercase(), 2, pad);
    for (const char* s : {"", "J", "JO", "JONES", "WASHINGTON"}) {
      EXPECT_EQ(e.CountGrams(s), e.Grams(s).size())
          << "pad=" << pad << " s=" << s;
    }
  }
}

TEST(QGramExtractorTest, UnpaddedCountIsLenMinusOne) {
  // The convention Table 3's b values follow: 'JOHN' -> 3 bigrams,
  // '2003' -> 3 bigrams.
  const QGramExtractor e = MakeExtractor(Alphabet::Alphanumeric(), 2, false);
  EXPECT_EQ(e.CountGrams("JOHN"), 3u);
  EXPECT_EQ(e.CountGrams("2003"), 3u);
  EXPECT_EQ(e.CountGrams("AB"), 1u);
  EXPECT_EQ(e.CountGrams("A"), 0u);
}

TEST(QGramExtractorTest, TrigramsWork) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 3, false);
  EXPECT_EQ(e.IndexSpaceSize(), 26u * 26u * 26u);
  EXPECT_EQ(e.Grams("JONES"), (std::vector<std::string>{"JON", "ONE", "NES"}));
  // 'JON' = 9*676 + 14*26 + 13 = 6461.
  EXPECT_EQ(e.GramIndex("JON").value(), 6461u);
}

TEST(QGramExtractorTest, CreateRejectsOverflowingSpace) {
  // 39 symbols ^ 13 overflows 64 bits.
  Result<QGramExtractor> r = QGramExtractor::Create(Alphabet::Alphanumeric(),
                                                    {.q = 13, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(QGramExtractorTest, SubstituteChangesAtMost2qGrams) {
  // Property behind Section 5.1: one interior substitution changes at
  // most q bigrams in each string, so at most 2q differing indexes.
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  const std::string s1 = "JONES";
  const std::string s2 = "JONAS";  // substitute E->A
  const std::vector<uint64_t> u1 = e.IndexSet(s1);
  const std::vector<uint64_t> u2 = e.IndexSet(s2);
  std::vector<uint64_t> sym_diff;
  std::set_symmetric_difference(u1.begin(), u1.end(), u2.begin(), u2.end(),
                                std::back_inserter(sym_diff));
  EXPECT_LE(sym_diff.size(), 4u);
  EXPECT_EQ(sym_diff.size(), 4u);  // 'NE','ES' vs 'NA','AS'
}

TEST(QGramExtractorTest, CreateRejectsEmptyAlphabet) {
  const Alphabet empty("");
  Result<QGramExtractor> r =
      QGramExtractor::Create(empty, {.q = 2, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QGramExtractorTest, CreateRejectsHugeQFast) {
  // |S|^q never overflows over one symbol, so q itself must be bounded:
  // a q of 2^40 must not cost 2^40 steps.
  const Alphabet pad_only("_");
  const auto start = std::chrono::steady_clock::now();
  Result<QGramExtractor> r = QGramExtractor::Create(
      pad_only, {.q = size_t{1} << 40, .pad = true});
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(QGramExtractor::Create(pad_only,
                                      {.q = QGramExtractor::kMaxQ + 1,
                                       .pad = false})
                   .ok());
  Result<QGramExtractor> widest = QGramExtractor::Create(
      pad_only, {.q = QGramExtractor::kMaxQ, .pad = false});
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().IndexSpaceSize(), 1u);
}

TEST(QGramExtractorTest, WidestQOverSingleSymbolEmitsZeros) {
  const Alphabet a_only("A");
  const QGramExtractor e =
      MakeExtractor(a_only, QGramExtractor::kMaxQ, /*pad=*/false);
  size_t count = 0;
  const std::string value(QGramExtractor::kMaxQ + 3, 'a');
  e.ForEachIndex(value, [&](uint64_t ind) {
    EXPECT_EQ(ind, 0u);
    ++count;
  });
  EXPECT_EQ(count, 4u);
}

std::vector<uint64_t> OnePassIndexes(const QGramExtractor& e,
                                     std::string_view raw) {
  std::vector<uint64_t> out;
  e.ForEachIndex(raw, [&](uint64_t ind) { out.push_back(ind); });
  return out;
}

TEST(QGramExtractorTest, ForEachIndexEqualsNormalizeGramsGramIndex) {
  Rng rng(20160315);
  const Alphabet* alphabets[] = {&Alphabet::Uppercase(),
                                 &Alphabet::UppercasePadded(),
                                 &Alphabet::Alphanumeric()};
  for (const Alphabet* alphabet : alphabets) {
    for (const bool pad : {false, true}) {
      if (pad && !alphabet->Contains(kPadChar)) continue;
      for (const size_t q : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "alphabet=" << alphabet->symbols()
                                        << " q=" << q << " pad=" << pad);
        const QGramExtractor e = MakeExtractor(*alphabet, q, pad);
        for (int i = 0; i < 500; ++i) {
          const std::string raw = RandomField(rng);
          const std::vector<uint64_t> reference = ReferenceIndexes(e, raw);
          ASSERT_EQ(OnePassIndexes(e, raw), reference) << "raw=" << raw;
          // On a normalized value the one pass is the identity on the
          // documented IndexSet contract.
          std::vector<uint64_t> set = reference;
          std::sort(set.begin(), set.end());
          set.erase(std::unique(set.begin(), set.end()), set.end());
          ASSERT_EQ(e.IndexSet(Normalize(raw, *alphabet)), set)
              << "raw=" << raw;
        }
      }
    }
  }
}

TEST(QGramExtractorTest, RecordIndexSetIsUnionOfFieldSets) {
  Rng rng(42);
  const QGramExtractor e = MakeExtractor(Alphabet::Alphanumeric(), 2, false);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> fields;
    for (int f = 0; f < 4; ++f) fields.push_back(RandomField(rng));
    std::vector<uint64_t> merged;
    for (const std::string& field : fields) {
      const std::vector<uint64_t> set =
          e.IndexSet(Normalize(field, Alphabet::Alphanumeric()));
      merged.insert(merged.end(), set.begin(), set.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    ASSERT_EQ(e.RecordIndexSet(fields), merged);
  }
  EXPECT_TRUE(e.RecordIndexSet(std::vector<std::string>{}).empty());
}

}  // namespace
}  // namespace cbvlink
