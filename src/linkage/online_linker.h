// The one cBV-HB engine: the paper's pipeline (Section 5) as a
// persistent index with per-record and batch operations.
//
// The engine is a Theorem 1-sized c-vector encoder, an HbIndex
// (src/blocking/hb_index.h) and the rule's classifier, built from a
// CbvHbConfig by MakeCbvHbParts, which LinkageService shares.  Every
// cBV-HB entry point drives it:
//  * streaming: each arriving query record is embedded, probed through
//    the blocking groups, classified by the rule, and optionally inserted
//    so later arrivals can match it — the introduction's "nearly
//    real-time analysis ... involving streaming data" scenario;
//  * batch (CbvHbLinker::Link): InsertRecords A, then MatchRecords B —
//    both encode straight into flat rows (the arena's for A, a
//    per-worker block for B), so no EncodedRecord is built;
//  * multi-party (MultiPartyLinker::Link, Section 5.3): each party probes
//    the parties indexed before it, then is indexed itself;
//  * deduplication (FindDuplicates): MatchAndInsert over one data set.

#ifndef CBVLINK_LINKAGE_ONLINE_LINKER_H_
#define CBVLINK_LINKAGE_ONLINE_LINKER_H_

#include <span>
#include <vector>

#include "src/blocking/hb_index.h"
#include "src/common/execution.h"
#include "src/common/random.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvlink {

class ThreadPool;

/// What a CbvHbConfig builds: the encoder, an empty HB index and the
/// rule's classifier.
struct CbvHbParts {
  CVectorRecordEncoder encoder;
  HbIndex index;
  PairClassifier classifier;
};

/// Validates `*config` and, when its expected_qgrams are empty, estimates
/// them from `calibration_sample` (which must then be non-empty).
Status ResolveExpectedQGrams(CbvHbConfig* config,
                             const std::vector<Record>& calibration_sample);

/// Builds the parts of `config`, whose expected_qgrams must be set,
/// drawing the encoder and then the blocker from `rng` — the draw order
/// every cBV-HB entry point shares.
Result<CbvHbParts> MakeCbvHbParts(const CbvHbConfig& config, Rng& rng);

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

  /// Creates the engine from a config whose expected_qgrams are set
  /// (MakeCbvHbParts).
  static Result<OnlineCbvHbLinker> Create(CbvHbConfig config, Rng& rng);

  /// Encodes and indexes a registry record.
  Status Insert(const Record& record);

  /// Encodes and indexes a batch of registry records: InsertRecords over
  /// the execution policy's pool.
  Status InsertBatch(const std::vector<Record>& records,
                     const ExecutionOptions& options = {});

  /// Encodes every record straight into its arena row and indexes the
  /// rows (HbIndex::InsertRows over `pool`, null = inline); no
  /// EncodedRecord is built.  The index is byte-identical to
  /// InsertEncoded(EncodeAll(records)) at any thread count, and a
  /// repeated id keeps its first vector and slot.  When a record has the
  /// wrong field count, returns EncodeAll's error (the first such
  /// record's) and leaves the index untouched.  A non-null
  /// `encode_seconds` receives the time until every row is written; the
  /// rest of the call keys and indexes them.
  Status InsertRecords(std::span<const Record> records, ThreadPool* pool,
                       size_t min_chunk = 0,
                       double* encode_seconds = nullptr);

  /// Indexes records encoded by encoder() with HbIndex::InsertAll over
  /// `pool` (null = inline) — the index is byte-identical to a serial
  /// Insert() loop at any thread count.  A repeated id keeps its first
  /// vector and slot.
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
  /// the index in claimed chunks over `pool` (Matcher::MatchAll): pairs
  /// and stats are identical to a MatchEncoded loop at any thread count.
  Result<std::vector<IdPair>> MatchAll(
      const std::vector<EncodedRecord>& records, ThreadPool* pool = nullptr);

  /// Encodes and matches every record of `records` in one
  /// Matcher::MatchStream pass over `pool`: each worker encodes a chunk
  /// of records into its own row block, then probes and classifies the
  /// rows, so no record of `records` is stored.  Pairs and stats are
  /// identical to MatchAll(EncodeAll(records)) at any thread count.  A
  /// record with the wrong field count yields EncodeAll's error (the
  /// first such record's), no pairs and no stats.
  Result<std::vector<IdPair>> MatchRecords(std::span<const Record> records,
                                           ThreadPool* pool = nullptr);

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
  size_t size() const { return index_.store().size(); }

  /// Total blocking groups behind the stream.
  size_t blocking_groups() const { return index_.blocking_groups(); }

  /// The record encoder (layout introspection).
  const CVectorRecordEncoder& encoder() const { return encoder_; }

  /// The HB index: the arena and the blocking tables (introspection).
  const HbIndex& index() const { return index_; }

 private:
  explicit OnlineCbvHbLinker(CbvHbParts parts)
      : encoder_(std::move(parts.encoder)),
        index_(std::move(parts.index)),
        classifier_(std::move(parts.classifier)) {}

  /// InvalidArgument unless `encoded` has the encoder's width.
  Status CheckWidth(const EncodedRecord& encoded) const;

  CVectorRecordEncoder encoder_;
  HbIndex index_;
  PairClassifier classifier_;
  MatchStats stats_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_ONLINE_LINKER_H_
