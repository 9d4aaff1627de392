// Reproduces Figure 8:
//  (a) total running time of cBV-HB for K in {20, 25, 30, 35, 40} under
//      both perturbation schemes — the U-shape with its minimum near 30;
//  (b) the time needed to embed the data sets for each method
//      (HARRA < cBV-HB < BfH << SM-EB).

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/common/str.h"

namespace cbvlink {
namespace {

void RunPartA(const NcvrGenerator& gen, size_t n, size_t reps,
              std::optional<CsvWriter>& csv) {
  bench::Banner("Figure 8(a): running time vs K (cBV-HB, NCVR)");
  std::printf("%-6s %14s %14s %10s %10s\n", "K", "time PL (s)", "time PH (s)",
              "L(PL)", "L(PH)");
  const Schema& schema = gen.schema();
  for (const size_t K : {20, 25, 30, 35, 40}) {
    double seconds[2] = {0.0, 0.0};
    double groups[2] = {0.0, 0.0};
    for (int s = 0; s < 2; ++s) {
      const bench::Scheme scheme =
          s == 0 ? bench::Scheme::kPL : bench::Scheme::kPH;
      LinkagePairOptions options;
      options.num_records = n;
      Result<AveragedResult> avg = RunRepeated(
          gen, bench::MakeScheme(scheme), options, reps,
          [&](uint64_t seed) -> Result<std::unique_ptr<Linker>> {
            CbvHbConfig config = bench::CbvHbFor(schema, scheme, seed);
            if (scheme == bench::Scheme::kPL) {
              config.record_K = K;
            } else {
              // Scale the Table 3 attribute K's with the total budget:
              // K = 30 maps to the paper's {5, 5, 10}.
              config.attribute_K = {K / 6, K / 6, K / 3, K / 6};
            }
            Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
            if (!linker.ok()) return linker.status();
            return std::unique_ptr<Linker>(
                new CbvHbLinker(std::move(linker).value()));
          });
      bench::DieOnError(avg.ok() ? Status::OK() : avg.status(), "fig8a run");
      seconds[s] = avg.value().total_seconds;
      groups[s] = avg.value().blocking_groups;
    }
    std::printf("%-6zu %14.3f %14.3f %10.0f %10.0f\n", K, seconds[0],
                seconds[1], groups[0], groups[1]);
    if (csv.has_value()) {
      csv->WriteNumericRow(StrFormat("K=%zu", K),
                           {seconds[0], seconds[1], groups[0], groups[1]});
    }
  }
  std::printf(
      "\nExpected shape (paper): time is U-shaped in K with the minimum "
      "near K = 30.\n");
}

void RunPartB(const NcvrGenerator& gen, size_t n, std::optional<CsvWriter>& csv) {
  bench::Banner("Figure 8(b): embedding time per method (NCVR)");
  LinkagePairOptions options;
  options.num_records = n;
  Result<LinkagePair> data =
      BuildLinkagePair(gen, PerturbationScheme::Light(), options);
  bench::DieOnError(data.ok() ? Status::OK() : data.status(), "data");

  std::printf("%-8s %16s\n", "method", "embed time (s)");
  for (const char* method : {"HARRA", "cBV-HB", "BfH", "SM-EB"}) {
    Result<std::unique_ptr<Linker>> linker =
        bench::MakeLinker(method, gen.schema(), bench::Scheme::kPL, 99);
    bench::DieOnError(linker.ok() ? Status::OK() : linker.status(), method);
    Result<LinkageResult> result =
        linker.value()->Link(data.value().a, data.value().b);
    bench::DieOnError(result.ok() ? Status::OK() : result.status(), method);
    double embed_seconds = result.value().embed_seconds;
    const auto* cbv = dynamic_cast<const CbvHbLinker*>(linker.value().get());
    if (cbv != nullptr) {
      // cBV-HB's Link encodes B inside its match stage, streaming it
      // through the matcher; encode B on its own so that the figure
      // covers both data sets, as for the other methods.
      Stopwatch watch;
      bench::DieOnError(
          cbv->encoder().value()->EncodeAll(data.value().b).status(), method);
      embed_seconds += watch.ElapsedSeconds();
    }
    std::printf("%-8s %16.3f\n", method, embed_seconds);
    if (csv.has_value()) {
      csv->WriteNumericRow(std::string("embed_") + method, {embed_seconds});
    }
  }
  std::printf(
      "\nExpected shape (paper): HARRA cheapest, SM-EB most expensive by a "
      "large margin (pivot scans).\n");
}

void Run() {
  // The low-K side of the U-shape (overpopulated buckets) only shows at
  // scale; the default is chosen so both sides are visible.
  const size_t n = RecordsFromEnv(8000);
  const size_t reps = RepetitionsFromEnv(2);
  std::printf("records=%zu reps=%zu\n", n, reps);

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  bench::DieOnError(gen.ok() ? Status::OK() : gen.status(), "generator");

  std::optional<CsvWriter> csv;
  const std::string csv_dir = CsvDirFromEnv();
  if (!csv_dir.empty()) {
    Result<CsvWriter> w =
        CsvWriter::Open(csv_dir + "/fig8.csv", {"row", "v1", "v2", "v3", "v4"});
    if (w.ok()) csv.emplace(std::move(w).value());
  }

  RunPartA(gen.value(), n, reps, csv);
  RunPartB(gen.value(), n, csv);
}

}  // namespace
}  // namespace cbvlink

int main() {
  cbvlink::Run();
  return 0;
}
