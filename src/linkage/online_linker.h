// The one cBV-HB engine: the paper's pipeline (Section 5) as a
// persistent index with per-record and batch operations.
//
// Create turns a CbvHbConfig into a Theorem 1-sized c-vector encoder, an
// HB blocker — record-level (Section 4.2) or rule-aware attribute-level
// (Section 5.4) — a VectorStore arena whose slots the blocking tables
// hold, and the rule's classifier.  Every cBV-HB entry point drives it:
//  * streaming: each arriving query record is embedded, probed through
//    the blocking groups, classified by the rule, and optionally inserted
//    so later arrivals can match it — the introduction's "nearly
//    real-time analysis ... involving streaming data" scenario;
//  * batch (CbvHbLinker::Link): insert data set A, then MatchAll B;
//  * multi-party (MultiPartyLinker::Link, Section 5.3): each party probes
//    the parties indexed before it, then is indexed itself;
//  * deduplication (FindDuplicates): MatchAndInsert over one data set.

#ifndef CBVLINK_LINKAGE_ONLINE_LINKER_H_
#define CBVLINK_LINKAGE_ONLINE_LINKER_H_

#include <variant>
#include <vector>

#include "src/blocking/attribute_blocker.h"
#include "src/blocking/matcher.h"
#include "src/blocking/record_blocker.h"
#include "src/common/execution.h"
#include "src/common/random.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvlink {

class ThreadPool;

/// cBV-HB over persistent blocking structures, with insert and match
/// operations per record and per batch.  The expected q-gram counts must
/// be known up front (supplied directly or estimated from a calibration
/// sample), since the encoder is fixed for the engine's lifetime.
class OnlineCbvHbLinker {
 public:
  /// Creates the engine with Rng(config.seed).  When
  /// config.expected_qgrams is empty, they are estimated from
  /// `calibration_sample` (which must then be non-empty).
  static Result<OnlineCbvHbLinker> Create(
      CbvHbConfig config, const std::vector<Record>& calibration_sample = {});

  /// Creates the engine from a config whose expected_qgrams are set,
  /// drawing the encoder and then the blocker from `rng` — the draw
  /// order every cBV-HB entry point shares.
  static Result<OnlineCbvHbLinker> Create(CbvHbConfig config, Rng& rng);

  /// Encodes and indexes a registry record.
  Status Insert(const Record& record);

  /// Encodes and indexes a batch of registry records: EncodeAll over the
  /// execution policy's pool, then InsertEncoded.
  Status InsertBatch(const std::vector<Record>& records,
                     const ExecutionOptions& options = {});

  /// Indexes records encoded by encoder(): stores them in the arena, then
  /// the blocker's two-phase BulkInsert over `pool` (null = inline) — the
  /// index is byte-identical to a serial Insert() loop at any thread
  /// count.  A repeated id keeps its first vector and slot.
  /// InvalidArgument when a vector width does not match the encoder.
  Status InsertEncoded(const std::vector<EncodedRecord>& records,
                       ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Matches a query record against everything inserted so far; appends
  /// matched (registry_id, query_id) pairs to `out`.
  Status Match(const Record& record, std::vector<IdPair>* out);

  /// Match for a record encoded by encoder(); does not insert it.
  /// InvalidArgument when the vector width does not match the encoder.
  Status MatchEncoded(const EncodedRecord& encoded, std::vector<IdPair>* out);

  /// Matches every record of `records` (encoded by encoder()) against
  /// the index, sharded over `pool` (Matcher::MatchAll): pairs and stats
  /// are identical to a MatchEncoded loop at any thread count.
  Result<std::vector<IdPair>> MatchAll(
      const std::vector<EncodedRecord>& records, ThreadPool* pool = nullptr);

  /// Match, then insert the query so future arrivals can link to it.
  Status MatchAndInsert(const Record& record, std::vector<IdPair>* out);

  /// MatchAndInsert for a record encoded up front (e.g. by a parallel
  /// EncodeAll pass); InvalidArgument when the vector width does not
  /// match this stream's encoder.
  Status MatchAndInsertEncoded(const EncodedRecord& encoded,
                               std::vector<IdPair>* out);

  /// Matcher counters accumulated across every match call.
  const MatchStats& stats() const { return stats_; }

  /// Records currently indexed.
  size_t size() const { return store_.size(); }

  /// Total blocking groups behind the stream.
  size_t blocking_groups() const { return blocking_groups_; }

  /// The record encoder (layout introspection).
  const CVectorRecordEncoder& encoder() const { return encoder_; }

 private:
  using Blocker = std::variant<RecordLevelBlocker, AttributeLevelBlocker>;

  OnlineCbvHbLinker(CVectorRecordEncoder encoder, Blocker blocker,
                    PairClassifier classifier, size_t blocking_groups)
      : encoder_(std::move(encoder)),
        blocker_(std::move(blocker)),
        classifier_(std::move(classifier)),
        blocking_groups_(blocking_groups) {}

  /// InvalidArgument unless `encoded` has the encoder's width.
  Status CheckWidth(const EncodedRecord& encoded) const;

  /// Stores `encoded` and indexes its blocking keys at the slot it
  /// landed in.
  void Index(const EncodedRecord& encoded);

  /// A matcher over the active blocker and the arena (derived per call,
  /// so the object stays safely movable).
  Matcher MakeMatcher() const {
    return Matcher(
        std::visit([](const auto& blocker) -> const SlotCandidateSource* {
          return &blocker;
        }, blocker_),
        &store_);
  }

  CVectorRecordEncoder encoder_;
  Blocker blocker_;
  PairClassifier classifier_;
  size_t blocking_groups_ = 0;
  VectorStore store_;
  MatchStats stats_;
  /// Probe scratch reused across match calls, so the steady-state stream
  /// path allocates nothing per query.
  Matcher::Scratch scratch_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_ONLINE_LINKER_H_
