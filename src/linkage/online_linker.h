// Online (streaming) cBV-HB linkage — the introduction's real-time
// integration scenario as a first-class API.
//
// A registry is built once (or grown incrementally); each arriving query
// record is embedded, probed through the blocking groups, classified by
// the rule, and optionally inserted so later arrivals can match it.
// This is the "nearly real-time analysis ... involving streaming data"
// deployment the paper motivates compact embeddings with.

#ifndef CBVLINK_LINKAGE_ONLINE_LINKER_H_
#define CBVLINK_LINKAGE_ONLINE_LINKER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/blocking/attribute_blocker.h"
#include "src/blocking/matcher.h"
#include "src/blocking/record_blocker.h"
#include "src/common/execution.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvlink {

/// Streaming cBV-HB: persistent blocking structures with per-record
/// insert and match operations.  Reuses CbvHbConfig; the expected
/// q-gram counts must be known up front (supplied directly or estimated
/// from a calibration sample), since the encoder is fixed for the
/// stream's lifetime.
class OnlineCbvHbLinker {
 public:
  /// Creates the linker.  When config.expected_qgrams is empty, they are
  /// estimated from `calibration_sample` (which must then be non-empty).
  static Result<OnlineCbvHbLinker> Create(
      CbvHbConfig config, const std::vector<Record>& calibration_sample = {});

  /// Encodes and indexes a registry record.
  Status Insert(const Record& record);

  /// Encodes and indexes a batch of registry records: EncodeAll over the
  /// execution policy's pool, then the blocker's two-phase BulkInsert —
  /// the resulting index is byte-identical to a serial Insert() loop at
  /// any thread count.
  Status InsertBatch(const std::vector<Record>& records,
                     const ExecutionOptions& options = {});

  /// Matches a query record against everything inserted so far; appends
  /// matched (registry_id, query_id) pairs to `out`.
  Status Match(const Record& record, std::vector<IdPair>* out);

  /// Match, then insert the query so future arrivals can link to it.
  Status MatchAndInsert(const Record& record, std::vector<IdPair>* out);

  /// MatchAndInsert for a record encoded up front (e.g. by a parallel
  /// EncodeAll pass); InvalidArgument when the vector width does not
  /// match this stream's encoder.
  Status MatchAndInsertEncoded(const EncodedRecord& encoded,
                               std::vector<IdPair>* out);

  /// Matcher counters accumulated across every Match call.
  const MatchStats& stats() const { return stats_; }

  /// Records currently indexed.
  size_t size() const { return store_.size(); }

  /// Total blocking groups behind the stream.
  size_t blocking_groups() const { return blocking_groups_; }

  /// The record encoder (layout introspection).
  const CVectorRecordEncoder& encoder() const { return *encoder_; }

 private:
  OnlineCbvHbLinker() = default;

  Result<EncodedRecord> Encode(const Record& record) const;

  /// Stores `encoded` and indexes its blocking keys at the slot it
  /// landed in.
  void Index(const EncodedRecord& encoded);

  /// The active candidate source (derived, so the object stays safely
  /// movable).
  const CandidateSource& source() const {
    return attribute_blocker_.has_value()
               ? static_cast<const CandidateSource&>(*attribute_blocker_)
               : static_cast<const CandidateSource&>(*record_blocker_);
  }

  CbvHbConfig config_;
  std::optional<CVectorRecordEncoder> encoder_;
  std::optional<RecordLevelBlocker> record_blocker_;
  std::optional<AttributeLevelBlocker> attribute_blocker_;
  PairClassifier classifier_;
  VectorStore store_;
  MatchStats stats_;
  /// Probe scratch reused across Match calls, so the steady-state stream
  /// path allocates nothing per query.
  Matcher::Scratch scratch_;
  size_t blocking_groups_ = 0;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_ONLINE_LINKER_H_
