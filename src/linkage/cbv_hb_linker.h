// The paper's method: cBV-HB (Section 5).
//
// Pipeline: estimate b^(f_i) from the data -> build Theorem 1-sized
// c-vector encoders -> encode both data sets -> block with HB, either
// record-level (Section 4.2) or attribute-level rule-aware (Section 5.4)
// -> match with Algorithm 2, classifying pairs by the rule on
// attribute-level Hamming distances.  OnlineCbvHbLinker (online_linker.h)
// builds and runs every stage after the estimate; Link() drives it.

#ifndef CBVLINK_LINKAGE_CBV_HB_LINKER_H_
#define CBVLINK_LINKAGE_CBV_HB_LINKER_H_

#include <optional>
#include <vector>

#include "src/embedding/optimal_size.h"
#include "src/embedding/record_encoder.h"
#include "src/linkage/linker.h"
#include "src/rules/rule.h"

namespace cbvlink {

/// Configuration of a cBV-HB run; defaults follow Section 6.
struct CbvHbConfig {
  /// The common attribute set.
  Schema schema;
  /// Classification rule over attribute-level Hamming thresholds; always
  /// applied at match time, and drives the blocking structures when
  /// attribute_level_blocking is set.
  Rule rule = Rule::Pred(0, 0);
  /// Attribute-level (Section 5.4) vs standard record-level blocking.
  bool attribute_level_blocking = false;

  /// K^(f_i) per attribute (attribute-level mode; Table 3 column K).
  std::vector<size_t> attribute_K;
  /// K for record-level mode (paper: 30).
  size_t record_K = 30;
  /// Record-level Hamming threshold for Equation 2's L (paper: 4 for PL).
  size_t record_theta = 4;

  /// Miss probability delta of Equation 2.
  double delta = 0.1;
  /// Theorem 1 parameters (rho, r).
  OptimalSizeOptions sizing;
  /// Expected q-grams per attribute; when empty they are estimated from a
  /// sample of data set A (the paper's Charlie samples the data sets).
  std::vector<double> expected_qgrams;
  /// Sample size for that estimation.
  size_t estimation_sample = 1000;
  /// Seed for every random component of the pipeline.
  uint64_t seed = 7;
};

/// OK when `config` is a valid cBV-HB configuration: a non-empty schema,
/// a rule over its attributes, one K per attribute for attribute-level
/// blocking, and one expected q-gram count per attribute when given.
/// CbvHbLinker, OnlineCbvHbLinker and LinkageService all check it.
Status ValidateCbvHbConfig(const CbvHbConfig& config);

/// The cBV-HB linker: a batch driver over OnlineCbvHbLinker, which
/// indexes data set A and matches data set B within one Link() call.
class CbvHbLinker : public Linker {
 public:
  /// Validates the configuration.
  static Result<CbvHbLinker> Create(CbvHbConfig config);

  std::string_view name() const override { return "cBV-HB"; }

  using Linker::Link;
  Result<LinkageResult> Link(const std::vector<Record>& a,
                             const std::vector<Record>& b,
                             const ExecutionOptions& options) override;

  /// The record encoder built during the last Link() call, exposed for
  /// Table 3-style introspection of m_opt.  FailedPrecondition before the
  /// first Link() — the encoder only exists once sizing has run.
  Result<const CVectorRecordEncoder*> encoder() const {
    if (!encoder_) {
      return Status::FailedPrecondition(
          "CbvHbLinker::encoder() called before Link()");
    }
    return &*encoder_;
  }

 private:
  explicit CbvHbLinker(CbvHbConfig config) : config_(std::move(config)) {}

  CbvHbConfig config_;
  std::optional<CVectorRecordEncoder> encoder_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_CBV_HB_LINKER_H_
