// Rule-aware blocking walkthrough (Section 5.4): parse textual
// classification rules, inspect the blocking structures they induce
// (AND / OR / NOT, per-structure L from Equations 2 and 10-12), and link
// with a compound rule including a NOT.

#include <cstdio>

#include "src/blocking/hb_index.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/eval/measures.h"
#include "src/rules/probability.h"
#include "src/rules/rule_parser.h"

using namespace cbvlink;

int main() {
  Result<NcvrGenerator> generator = NcvrGenerator::Create();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  const Schema& schema = generator.value().schema();

  // Generate and encode a small data set.
  LinkagePairOptions options;
  options.num_records = 1500;
  options.seed = 5;
  Result<LinkagePair> data = BuildLinkagePair(
      generator.value(), PerturbationScheme::Heavy(4), options);
  if (!data.ok()) return 1;

  Rng rng(9);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      schema, EstimateExpectedQGrams(schema, data.value().a), rng);
  if (!encoder.ok()) return 1;
  std::printf("Record layout:");
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    std::printf(" %s=%zu bits", schema.attributes[i].name.c_str(),
                encoder.value().layout().segment(i).size);
  }
  std::printf(" (total %zu)\n\n", encoder.value().total_bits());

  // Three textual rules, parsed like a downstream user would write them.
  const char* rule_texts[] = {
      "f1 <= 4 AND f2 <= 4 AND f3 <= 8",             // C1
      "(f1 <= 4 AND f2 <= 4) OR f3 <= 8",            // C2
      "f1 <= 4 AND NOT f2 <= 4",                     // C3
  };

  std::vector<EncodedRecord> enc_a;
  for (const Record& r : data.value().a) {
    enc_a.push_back(encoder.value().Encode(r).value());
  }
  std::vector<EncodedRecord> enc_b;
  for (const Record& r : data.value().b) {
    enc_b.push_back(encoder.value().Encode(r).value());
  }

  for (const char* text : rule_texts) {
    Result<Rule> rule = ParseRule(text);
    if (!rule.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   rule.status().ToString().c_str());
      return 1;
    }
    std::printf("rule %s\n", rule.value().ToString().c_str());

    // The collision probability the blocking structures are sized for.
    std::vector<AttributeLshParams> params;
    const std::vector<size_t> K = {5, 5, 10, 5};
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      params.push_back({encoder.value().layout().segment(i).size, K[i]});
    }
    Result<double> p = RuleCollisionProbability(rule.value(), params);
    if (p.ok()) {
      std::printf("  per-group collision probability >= %.5f\n", p.value());
    }

    AttributeBlockerOptions blocker_options;
    blocker_options.attribute_K = K;
    Rng blocker_rng(17);
    Result<HbBlocker> blocker = HbBlocker::Create(
        rule.value(), encoder.value().layout(), blocker_options, blocker_rng);
    if (!blocker.ok()) {
      std::fprintf(stderr, "  blocker: %s\n",
                   blocker.status().ToString().c_str());
      continue;
    }
    std::printf("  blocking structures: %zu, tables: %zu, L per structure:",
                blocker.value().num_structures(),
                blocker.value().TotalTables());
    for (size_t s = 0; s < blocker.value().num_structures(); ++s) {
      std::printf(" %zu", blocker.value().structure_L(s));
    }
    std::printf("\n");

    HbIndex index(std::move(blocker).value());
    index.InsertAll(enc_a);
    MatchStats stats;
    const PairClassifier classifier =
        MakeRuleClassifier(rule.value(), encoder.value().layout());
    const std::vector<IdPair> matches =
        index.matcher().MatchAll(enc_b, classifier, &stats);
    std::printf("  comparisons: %llu, matched pairs: %zu\n\n",
                static_cast<unsigned long long>(stats.comparisons),
                matches.size());
  }
  return 0;
}
