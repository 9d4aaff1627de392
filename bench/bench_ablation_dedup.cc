// Ablation: Algorithm 2's de-duplicating unique collection.  Measures how
// many duplicate candidate occurrences the redundant L-group blocking
// produces and the distance computations the dedup saves, as L grows.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/blocking/hb_index.h"
#include "src/common/stopwatch.h"
#include "src/common/str.h"

namespace cbvlink {
namespace {

void Run() {
  const size_t n = RecordsFromEnv(3000);
  bench::Banner("Ablation: Algorithm 2 de-duplication (cBV-HB, NCVR, PL)");
  std::printf("records=%zu\n\n", n);

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  bench::DieOnError(gen.ok() ? Status::OK() : gen.status(), "generator");
  const Schema& schema = gen.value().schema();

  LinkagePairOptions options;
  options.num_records = n;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  bench::DieOnError(data.ok() ? Status::OK() : data.status(), "data");

  Rng enc_rng(7);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      schema, EstimateExpectedQGrams(schema, data.value().a), enc_rng);
  bench::DieOnError(encoder.ok() ? Status::OK() : encoder.status(), "encoder");

  std::vector<EncodedRecord> enc_a, enc_b;
  for (const Record& r : data.value().a) {
    enc_a.push_back(encoder.value().Encode(r).value());
  }
  for (const Record& r : data.value().b) {
    enc_b.push_back(encoder.value().Encode(r).value());
  }
  const PairClassifier classifier =
      MakeRuleClassifier(bench::PlRule(), encoder.value().layout());

  std::optional<CsvWriter> csv;
  const std::string csv_dir = CsvDirFromEnv();
  if (!csv_dir.empty()) {
    Result<CsvWriter> w = CsvWriter::Open(
        csv_dir + "/ablation_dedup.csv",
        {"L", "occurrences", "comparisons", "dedup_saved", "saved_frac"});
    if (w.ok()) csv.emplace(std::move(w).value());
  }

  std::printf("%-6s %14s %14s %14s %12s\n", "L", "occurrences", "comparisons",
              "dedup saved", "saved %");
  for (const size_t L : {2, 4, 6, 12, 24}) {
    Rng rng(100 + L);
    Result<RecordLevelBlocker> blocker =
        RecordLevelBlocker::CreateWithL(encoder.value().total_bits(), 30, L,
                                        rng);
    bench::DieOnError(blocker.ok() ? Status::OK() : blocker.status(),
                      "blocker");
    HbIndex index(std::move(blocker).value());
    index.InsertAll(enc_a);
    MatchStats stats;
    Stopwatch watch;
    index.matcher().MatchAll(enc_b, classifier, &stats);
    const double saved_frac =
        stats.candidate_occurrences == 0
            ? 0.0
            : static_cast<double>(stats.dedup_skipped) /
                  static_cast<double>(stats.candidate_occurrences);
    std::printf("%-6zu %14llu %14llu %14llu %11.1f%%\n", L,
                static_cast<unsigned long long>(stats.candidate_occurrences),
                static_cast<unsigned long long>(stats.comparisons),
                static_cast<unsigned long long>(stats.dedup_skipped),
                100.0 * saved_frac);
    if (csv.has_value()) {
      csv->WriteNumericRow(
          StrFormat("%zu", L),
          {static_cast<double>(stats.candidate_occurrences),
           static_cast<double>(stats.comparisons),
           static_cast<double>(stats.dedup_skipped), saved_frac});
    }
  }
  std::printf(
      "\nReading: the share of distance computations Algorithm 2 avoids "
      "grows with L —\nredundant groups re-deliver the same pairs.\n");
}

}  // namespace
}  // namespace cbvlink

int main() {
  cbvlink::Run();
  return 0;
}
