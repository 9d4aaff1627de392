// Reproduces the Section 5.2 motivation for c-vectors: applying HB
// directly to *full* q-gram vectors (676 bits per name attribute, 2704
// bits per NCVR record) samples mostly zeros, producing few overpopulated
// buckets and an all-pairs-like comparison load — while Theorem 1-sized
// c-vectors (120 bits) spread records across many small buckets.
//
// Both representations are blocked with identical K and L so the only
// variable is the embedding's density.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/blocking/hb_index.h"
#include "src/common/stopwatch.h"
#include "src/embedding/qgram_vector.h"
#include "src/eval/block_stats.h"

namespace cbvlink {
namespace {

/// Encodes a record as concatenated full attribute-level q-gram vectors.
BitVector FullRecordVector(const Record& record,
                           const std::vector<QGramVectorEncoder>& encoders) {
  size_t total_bits = 0;
  for (const QGramVectorEncoder& encoder : encoders) {
    total_bits += encoder.vector_size();
  }
  BitVector bits(total_bits);
  size_t offset = 0;
  for (size_t i = 0; i < encoders.size(); ++i) {
    encoders[i].EncodeInto(record.fields[i], offset, &bits);
    offset += encoders[i].vector_size();
  }
  return bits;
}

void Run() {
  const size_t n = RecordsFromEnv(5000);
  bench::Banner("Section 5.2: sparse full q-gram vectors vs compact c-vectors");
  std::printf("records=%zu, identical K=30 and L for both representations\n\n",
              n);

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  bench::DieOnError(gen.ok() ? Status::OK() : gen.status(), "generator");
  const Schema& schema = gen.value().schema();

  LinkagePairOptions options;
  options.num_records = n;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  bench::DieOnError(data.ok() ? Status::OK() : data.status(), "data");

  // --- Full q-gram vectors --------------------------------------------
  std::vector<QGramVectorEncoder> full_encoders;
  for (const AttributeSpec& spec : schema.attributes) {
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*spec.alphabet, spec.qgram);
    bench::DieOnError(extractor.ok() ? Status::OK() : extractor.status(),
                      "extractor");
    Result<QGramVectorEncoder> encoder =
        QGramVectorEncoder::Create(std::move(extractor).value());
    bench::DieOnError(encoder.ok() ? Status::OK() : encoder.status(),
                      "full encoder");
    full_encoders.push_back(std::move(encoder).value());
  }
  size_t full_bits = 0;
  for (const QGramVectorEncoder& e : full_encoders) {
    full_bits += e.vector_size();
  }

  // --- Compact c-vectors ----------------------------------------------
  Rng enc_rng(3);
  Result<CVectorRecordEncoder> compact = CVectorRecordEncoder::Create(
      schema, EstimateExpectedQGrams(schema, data.value().a), enc_rng);
  bench::DieOnError(compact.ok() ? Status::OK() : compact.status(),
                    "compact encoder");

  struct Row {
    const char* label;
    size_t bits;
    BucketStats stats;
    uint64_t comparisons;
    double seconds;
  };
  std::vector<Row> rows;

  for (int mode = 0; mode < 2; ++mode) {
    const bool use_full = mode == 0;
    Stopwatch watch;

    std::vector<EncodedRecord> enc_a;
    std::vector<EncodedRecord> enc_b;
    enc_a.reserve(data.value().a.size());
    enc_b.reserve(data.value().b.size());
    for (const Record& r : data.value().a) {
      enc_a.push_back(
          use_full
              ? EncodedRecord{r.id, FullRecordVector(r, full_encoders)}
              : compact.value().Encode(r).value());
    }
    for (const Record& r : data.value().b) {
      enc_b.push_back(
          use_full
              ? EncodedRecord{r.id, FullRecordVector(r, full_encoders)}
              : compact.value().Encode(r).value());
    }

    const size_t bits = use_full ? full_bits : compact.value().total_bits();
    Rng rng(7);
    // Same K and L for both; theta scaled to the space so Eq. 2 would be
    // satisfied in either (one edit costs the same bit flips in both).
    Result<HbBlocker> blocker = HbBlocker::CreateWithL(bits, 30, 6, rng);
    bench::DieOnError(blocker.ok() ? Status::OK() : blocker.status(),
                      "blocker");
    HbIndex index(std::move(blocker).value());
    index.InsertAll(enc_a);
    MatchStats stats;
    index.matcher().MatchAll(enc_b, MakeRecordThresholdClassifier(4), &stats);

    rows.push_back(
        {use_full ? "full BV" : "c-vector", bits,
         ComputeBucketStats(index.blocker().tables()),
         stats.comparisons, watch.ElapsedSeconds()});
  }

  std::printf("%-10s %8s %10s %12s %10s %8s %14s %10s\n", "vector", "bits",
              "buckets", "max bucket", "mean", "gini", "comparisons",
              "time (s)");
  for (const Row& row : rows) {
    std::printf("%-10s %8zu %10zu %12zu %10.1f %8.3f %14llu %10.3f\n",
                row.label, row.bits, row.stats.num_buckets,
                row.stats.max_bucket, row.stats.mean_bucket, row.stats.gini,
                static_cast<unsigned long long>(row.comparisons),
                row.seconds);
  }

  const std::string csv_dir = CsvDirFromEnv();
  if (!csv_dir.empty()) {
    Result<CsvWriter> csv = CsvWriter::Open(
        csv_dir + "/sparsity.csv",
        {"vector", "bits", "buckets", "max_bucket", "gini", "comparisons"});
    if (csv.ok()) {
      for (const Row& row : rows) {
        csv.value().WriteNumericRow(
            row.label, {static_cast<double>(row.bits),
                        static_cast<double>(row.stats.num_buckets),
                        static_cast<double>(row.stats.max_bucket),
                        row.stats.gini,
                        static_cast<double>(row.comparisons)});
      }
    }
  }
  std::printf(
      "\nReading: sampling the 2704-bit full vectors hits mostly zeros — "
      "few, huge buckets and\nnear-all-pairs comparisons; the 120-bit "
      "c-vectors (density ~30%%) spread the same\nrecords across orders of "
      "magnitude more buckets (Section 5.2's argument).\n");
}

}  // namespace
}  // namespace cbvlink

int main() {
  cbvlink::Run();
  return 0;
}
