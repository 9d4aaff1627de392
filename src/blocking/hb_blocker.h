// HB blocking (Sections 4.2 and 5.4): hash tables keyed by composite keys
// of K sampled bits, grouped into *blocking structures*, each with its
// own L from Equation 2.
//
// Record-level blocking (Section 4.2) is the one-structure case: one AND
// structure whose family samples K bits of the whole record vector for
// each of its L groups.  Rule-aware attribute-level blocking (Section
// 5.4) derives the structures from the classification rule:
//
//  * a conjunction of predicates becomes one structure whose groups use a
//    compound key — the concatenated attribute-level keys (Definition 4);
//  * a disjunction becomes one structure with an independent table per
//    attribute in every group (Definition 5);
//  * NOT contributes no tables; its truth is the *absence* of collision
//    (Definition 6);
//  * compound rules (the paper's C1/C2/C3) become a boolean expression
//    over structure-membership outcomes.
//
// There a structure's L comes from the rule-composed probability (Eqs.
// 10-11), so blocking adapts to how strict each part of the rule is.
// Candidate generation probes the positive structures; the matcher then
// drops the fresh candidates whose pair the rule expression says was
// "never formulated" (FilterFormulated, over the candidates' arena rows)
// — the behaviour that gives Figure 6 its C3 gap.  The blocker keeps no
// vectors of its own.

#ifndef CBVLINK_BLOCKING_HB_BLOCKER_H_
#define CBVLINK_BLOCKING_HB_BLOCKER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/function_ref.h"
#include "src/common/random.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/hamming_lsh.h"
#include "src/rules/rule.h"

namespace cbvlink {

class ThreadPool;

/// Source of candidate Ids for a probe vector, so the matcher is
/// agnostic to the blocking strategy (and tests can substitute fakes).
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Invokes `cb` for every candidate Id of `probe`, in blocking-group
  /// order.  Ids may repeat across groups (the matcher de-duplicates, as
  /// in Algorithm 2).
  virtual void ForEachCandidate(
      const BitVector& probe,
      const std::function<void(RecordId)>& cb) const = 0;

  /// Bucket-span variant of ForEachCandidate: invokes `cb` with views of
  /// the candidate Ids, in the same order ForEachCandidate would deliver
  /// them, so a caller pays one indirect call per span instead of one
  /// std::function invocation per Id.  Spans are only valid for the
  /// duration of the callback.  The default adapter wraps
  /// ForEachCandidate with single-Id spans (exact same Ids and order).
  virtual void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const {
    ForEachCandidate(probe, [&cb](RecordId id) {
      cb(std::span<const RecordId>(&id, 1));
    });
  }
};

/// A candidate source whose tables hold arena slots (HbBlocker): the
/// slot of a record is its VectorStore dense index, so the matcher stamps
/// and gathers by the value it reads from a bucket.  Every writer passes
/// the slot VectorStore::Add / AddAll / AddRows gave its record, so the
/// store alone decides slots (a repeated id keeps its first slot).  A
/// slot -> id column keeps the Id-addressed CandidateSource interface
/// callable as a thin view.
class SlotCandidateSource : public CandidateSource {
 public:
  /// Invokes `cb` once per non-empty probed bucket with that bucket's
  /// slots, in blocking-group order (repeats across groups included).
  /// `probe` is a record row: the packed words of a vector as wide as
  /// the indexed ones.  Returns true when a probed bucket has dropped
  /// entries at its cap, so the candidates are incomplete.
  virtual bool ForEachSlotSpan(
      const uint64_t* probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const = 0;

  /// False when a pair can collide in the probed tables without being
  /// formulated by the source's rule (a compound rule's NOT, or an AND
  /// of structures of which only one is probed).  The matcher then runs
  /// FilterFormulated once per probe over its fresh candidates.
  virtual bool FormulatesEveryPair() const { return true; }

  /// For each i, sets keep[i] to 1 when the vector in row
  /// rows + slots[i] * stride (`stride` words) forms a pair with the
  /// `probe` row that the rule formulates, and to 0 otherwise.  Called
  /// only when FormulatesEveryPair() is false.
  virtual void FilterFormulated(const uint64_t* /*probe*/,
                                const uint64_t* /*rows*/, size_t /*stride*/,
                                std::span<const uint32_t> slots,
                                uint8_t* keep) const {
    std::fill(keep, keep + slots.size(), uint8_t{1});
  }

  /// ForEachSlotSpan with every slot mapped to its RecordId.
  void ForEachCandidate(
      const BitVector& probe,
      const std::function<void(RecordId)>& cb) const final;

  /// ForEachSlotSpan mapped to RecordIds through a small stack buffer: a
  /// bucket may arrive as several consecutive spans.
  void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const final;

  /// One past the largest slot written so far; every slot in the tables
  /// is below it.
  size_t num_slots() const { return slot_ids_.size(); }

  /// The RecordId written with `slot` (< num_slots()).
  RecordId SlotId(uint32_t slot) const { return slot_ids_[slot]; }

 protected:
  /// Records that `slots[i]` holds `ids[i]`, growing the column as
  /// needed.  Every writer calls it.
  void AssignSlots(std::span<const RecordId> ids,
                   std::span<const uint32_t> slots);

  /// The slots [num_slots(), num_slots() + n), for the id-taking
  /// BulkInsert shim.
  std::vector<uint32_t> NextSlots(size_t n) const;

 private:
  /// slot -> RecordId; slots never written read as 0.
  std::vector<RecordId> slot_ids_;
};

/// Options for building a rule-aware blocker.
struct AttributeBlockerOptions {
  /// K^(f_i) per schema attribute (Table 3 column K).  Attributes not
  /// referenced by the rule may carry any value.
  std::vector<size_t> attribute_K;
  /// Miss probability per blocking structure (Equation 2's delta).
  double delta = 0.1;
};

/// Hamming LSH blocker over record vectors: record-level (one structure)
/// or rule-aware over concatenated attribute-level c-vectors.
class HbBlocker : public SlotCandidateSource {
 public:
  /// Record-level blocking for `num_bits`-wide record vectors with `K`
  /// base hashes per group; L is derived from Equation 2 for Hamming
  /// threshold `theta` and miss probability `delta`.
  static Result<HbBlocker> Create(size_t num_bits, size_t K, size_t theta,
                                  double delta, Rng& rng);

  /// Record-level blocking with an explicit number of groups L.
  static Result<HbBlocker> CreateWithL(size_t num_bits, size_t K, size_t L,
                                       Rng& rng);

  /// Rule-aware blocking: the structures for `rule` over record vectors
  /// laid out by `layout`.  Fails when the rule is invalid for the
  /// layout, has no positive component (e.g. a bare NOT), or a
  /// structure's L exceeds OptimalGroupsFromComposite's cap.
  static Result<HbBlocker> Create(const Rule& rule, const RecordLayout& layout,
                                  const AttributeBlockerOptions& options,
                                  Rng& rng);

  /// An empty record-level blocker over `family`'s L composite keys
  /// whose buckets hold at most `bucket_cap` slots each (0 = unlimited;
  /// see BlockingTable).
  explicit HbBlocker(HammingLshFamily family, size_t bucket_cap = 0);

  /// An empty blocker over the same structures and hash functions whose
  /// buckets hold at most `bucket_cap` slots.
  HbBlocker EmptyCopy(size_t bucket_cap) const {
    return HbBlocker(structures_, expr_, generating_, bucket_cap);
  }

  /// Inserts data set A's records, record i at `slots[i]` (the slot
  /// VectorStore::Add / AddAll / AddRows returned for it), with a
  /// two-phase parallel build: phase 1 (KeyMatrix) computes every
  /// table's key of every record sharded over `pool` (per-cell writes,
  /// so chunking cannot reorder anything); phase 2 (InsertKeys) merges
  /// each table's key column in record order.  The resulting tables are
  /// identical to an Insert() loop at any thread count — same buckets,
  /// same per-bucket order, same counters.  Null `pool` (or a single
  /// worker) runs both phases inline; `min_chunk` only bounds phase-1
  /// scheduling overhead.  Into empty tables the merge sizes every
  /// bucket exactly (BlockingTable::BulkInsert).  May be called
  /// repeatedly to add more records.
  void BulkInsert(std::span<const EncodedRecord> records,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr,
                  size_t min_chunk = 0);

  /// BulkInsert of records given as rows: record i has id `ids[i]` and
  /// the vector packed in `rows[i]`, and goes to `slots[i]`.
  void BulkInsert(std::span<const RecordId> ids,
                  std::span<const uint64_t* const> rows,
                  std::span<const uint32_t> slots, ThreadPool* pool,
                  size_t min_chunk);

  /// Id-only shim for callers that fill the store on their own: record
  /// i goes to slot num_slots() + i.  That equals VectorStore::AddAll's
  /// slots only when every id is distinct; a repeated id gets its first
  /// slot from the store but a fresh one here, the tables then outrun
  /// the store, and Matcher::Probe aborts.  Pass the store's slots to
  /// the overload above whenever ids may repeat.
  void BulkInsert(std::span<const EncodedRecord> records,
                  ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Phase 1 of BulkInsert: the key matrix of `records`, one contiguous
  /// column per table in tables() order (keys[t * n + i]).  Reads only
  /// the hash families, so it may run while another thread writes the
  /// tables.
  std::vector<uint64_t> KeyMatrix(std::span<const EncodedRecord> records,
                                  ThreadPool* pool = nullptr,
                                  size_t min_chunk = 0) const;

  /// KeyMatrix of the vectors packed in `rows` (row i is record i).
  std::vector<uint64_t> KeyMatrix(std::span<const uint64_t* const> rows,
                                  ThreadPool* pool = nullptr,
                                  size_t min_chunk = 0) const;

  /// Phase 2 of BulkInsert: merges `keys`, the KeyMatrix of the records
  /// with ids `ids`, with record i at `slots[i]`, one table per pool
  /// chunk (inline when `pool` is null).
  void InsertKeys(std::span<const RecordId> ids,
                  std::span<const uint64_t> keys,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr);

  /// Inserts a single record (streaming ingestion) at `slot`.
  void Insert(const EncodedRecord& record, uint32_t slot);

  /// Candidates of `probe`: the slots colliding with it in the
  /// generating structures.  The keys of every table come from one pass
  /// per family; the probe then runs key-first (BlockingTable's
  /// ProbeBatch), each probed bucket emitted as one span over the
  /// table's own storage, repeats across groups included, in group order
  /// (the matcher's stamps de-duplicate).  Under a rule that lowers to
  /// several structures (C2, C3) a collision need not be formulated:
  /// FilterFormulated decides that.
  bool ForEachSlotSpan(
      const uint64_t* probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override;

  /// True for one structure (record-level, C1, or any flat AND/OR of
  /// predicates): every collision is then formulated.
  bool FormulatesEveryPair() const override {
    return expr_.kind == Expr::Kind::kStructure;
  }

  /// keep[i] = FormulatedByRule(row of slots[i], probe), with the
  /// probe's keys computed once.
  void FilterFormulated(const uint64_t* probe, const uint64_t* rows,
                        size_t stride, std::span<const uint32_t> slots,
                        uint8_t* keep) const override;

  /// True iff the pair (a, b) is formulated according to the blocking
  /// structures (Section 5.4 compound-rule semantics).
  bool FormulatedByRule(const BitVector& a, const BitVector& b) const;

  /// Number of blocking structures (1 for record-level blocking).
  size_t num_structures() const { return structures_.size(); }

  /// L of structure `s`.
  size_t structure_L(size_t s) const { return structures_[s].L; }

  /// Bits sampled by table `t`'s composite key (t < TotalTables()): the
  /// K of record-level blocking; an AND structure's sums its predicates'.
  size_t table_K(size_t t) const;

  /// Total hash tables across structures (space accounting: O(L) per AND
  /// structure, O(n_c * L) per OR structure).
  size_t TotalTables() const { return tables_.size(); }

  /// Every structure's tables, structure s's at [first_key, first_key +
  /// its tables): AND group l at l, OR predicate i's group l at i * L + l.
  const std::vector<BlockingTable>& tables() const { return tables_; }

 private:
  /// One blocking structure: an AND- or OR-composition of predicates (or
  /// the whole record vector) with its own L.  OR: one family per
  /// predicate, each with L composite functions sampled from that
  /// attribute's bit segment.  AND: one family, whose function l
  /// concatenates those of every predicate.  Its tables are
  /// families.size() * L consecutive ones starting at first_key, which
  /// is also where its keys start in AllKeys().
  struct Structure {
    size_t L = 0;
    std::vector<HammingLshFamily> families;
    size_t first_key = 0;
  };

  /// Boolean expression over structure membership.
  struct Expr {
    enum class Kind { kStructure, kAnd, kOr, kNot };
    Kind kind = Kind::kStructure;
    size_t structure = 0;
    std::vector<Expr> children;
  };

  /// Numbers the structures' tables in order and makes them empty with
  /// `bucket_cap`.
  HbBlocker(std::vector<Structure> structures, Expr expr,
            std::vector<size_t> generating, size_t bucket_cap);

  static size_t NumTables(const Structure& s) {
    return s.families.size() * s.L;
  }

  /// The key of the vector packed in `words` in every table of
  /// structure `s`, in table order; one key pass per family.  `keys`
  /// holds NumTables(s) keys.
  static void StructureKeys(const Structure& s, const uint64_t* words,
                            std::span<uint64_t> keys);

  /// The keys of `words` in every table, in tables() order.  `keys`
  /// holds TotalTables() keys.
  void AllKeys(const uint64_t* words, std::span<uint64_t> keys) const;

  /// True iff `a` collides in structure `s`, in any group/table, with
  /// the vector whose AllKeys() are `keys`.
  static bool CollidesInStructure(const Structure& s, const uint64_t* a,
                                  std::span<const uint64_t> keys);

  /// The rule's expression on (a, b), b given by its AllKeys().
  bool EvaluateExpr(const Expr& expr, const uint64_t* a,
                    std::span<const uint64_t> b_keys) const;

  std::vector<Structure> structures_;
  Expr expr_;
  /// Structures probed for candidate generation.
  std::vector<size_t> generating_;
  std::vector<BlockingTable> tables_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_HB_BLOCKER_H_
