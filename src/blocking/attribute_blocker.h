// Attribute-level, rule-aware HB blocking (Section 5.4).
//
// Instead of sampling bits uniformly from the whole record vector, the
// blocker derives *blocking structures* from the classification rule:
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
// Each structure gets its own L from Equation 2 with the rule-composed
// probability (Eqs. 10-11), so blocking adapts to how strict each part of
// the rule is.  Candidate generation probes the positive structures; the
// matcher then drops the fresh candidates whose pair the rule expression
// says was "never formulated" (FilterFormulated, over the candidates'
// arena rows) — the behaviour that gives Figure 6 its C3 gap.  The
// blocker keeps no vectors of its own.

#ifndef CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_
#define CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_

#include <span>
#include <vector>

#include "src/blocking/record_blocker.h"
#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/hamming_lsh.h"
#include "src/rules/probability.h"
#include "src/rules/rule.h"

namespace cbvlink {

/// Options for building an attribute-level blocker.
struct AttributeBlockerOptions {
  /// K^(f_i) per schema attribute (Table 3 column K).  Attributes not
  /// referenced by the rule may carry any value.
  std::vector<size_t> attribute_K;
  /// Miss probability per blocking structure (Equation 2's delta).
  double delta = 0.1;
  /// Upper bound on L per structure; beyond it Create() fails.
  size_t max_groups = 100000;
};

/// Rule-aware blocker over concatenated attribute-level c-vectors.
class AttributeLevelBlocker : public SlotCandidateSource {
 public:
  /// Builds the blocking structures for `rule` over record vectors laid
  /// out by `layout`.  Fails when the rule is invalid for the layout, has
  /// no positive component (e.g. a bare NOT), or a structure's L exceeds
  /// options.max_groups.
  static Result<AttributeLevelBlocker> Create(
      const Rule& rule, const RecordLayout& layout,
      const AttributeBlockerOptions& options, Rng& rng);

  /// An empty blocker over the same structures and hash functions whose
  /// buckets hold at most `bucket_cap` slots (0 = unlimited).
  AttributeLevelBlocker EmptyCopy(size_t bucket_cap) const;

  /// Inserts data set A's records, record i at `slots[i]` (the slot
  /// VectorStore::Add / AddAll returned for it), into every structure's
  /// tables.  Two-phase parallel build (see
  /// RecordLevelBlocker::BulkInsert): phase 1 computes every structure's
  /// keys into a key matrix, one column per table, over `pool`; phase 2
  /// merges each of the TotalTables() tables in record order (inline
  /// when `pool` is null or has one worker).  The tables are identical
  /// in content to an Insert() loop at any thread count.
  void BulkInsert(std::span<const EncodedRecord> records,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr,
                  size_t min_chunk = 0);

  /// Id-only shim with record i at slot num_slots() + i; valid only over
  /// distinct ids (see RecordLevelBlocker's id-only BulkInsert).
  void BulkInsert(std::span<const EncodedRecord> records,
                  ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// The two phases of BulkInsert, as RecordLevelBlocker's: the key
  /// matrix (one column per table, in AllKeys() order), then the merge.
  std::vector<uint64_t> KeyMatrix(std::span<const EncodedRecord> records,
                                  ThreadPool* pool = nullptr,
                                  size_t min_chunk = 0) const;
  void InsertKeys(std::span<const EncodedRecord> records,
                  std::span<const uint64_t> keys,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr);

  /// Inserts a single record (streaming ingestion) at `slot`.
  void Insert(const EncodedRecord& record, uint32_t slot);

  /// Candidates of `probe`: the slots colliding with it in the
  /// generating structures.  Each probed bucket is emitted as one span
  /// over the table's own storage, repeats across groups included, in
  /// group order (the matcher's stamps de-duplicate); the probe runs
  /// key-first (BlockingTable's ProbeBatch).  Under a rule that lowers
  /// to several structures (C2, C3) a collision need not be formulated:
  /// FilterFormulated decides that.
  bool ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override;

  /// True when the rule lowered to one structure (e.g. C1, or any flat
  /// AND/OR of predicates): every collision is then formulated.
  bool FormulatesEveryPair() const override {
    return expr_.kind == Expr::Kind::kStructure;
  }

  /// keep[i] = FormulatedByRule(row of slots[i], probe), with the
  /// probe's keys computed once.
  void FilterFormulated(const BitVector& probe, const uint64_t* rows,
                        size_t stride, std::span<const uint32_t> slots,
                        uint8_t* keep) const override;

  /// True iff the pair (a, b) is formulated according to the rule's
  /// blocking structures (Section 5.4 compound-rule semantics).
  bool FormulatedByRule(const BitVector& a, const BitVector& b) const;

  /// Number of blocking structures derived from the rule.
  size_t num_structures() const { return structures_.size(); }

  /// L of structure `s`.
  size_t structure_L(size_t s) const { return structures_[s].L; }

  /// Total hash tables across structures (space accounting: O(L) per AND
  /// structure, O(n_c * L) per OR structure).
  size_t TotalTables() const;

  const Rule& rule() const { return rule_; }

 private:
  /// One blocking structure: an AND- or OR-composition of predicates with
  /// its own L and tables.
  struct Structure {
    enum class Kind { kAnd, kOr };
    Kind kind = Kind::kAnd;
    std::vector<Predicate> predicates;
    size_t L = 0;
    /// OR: one family per predicate, each with L composite functions
    /// sampled from that attribute's bit segment.  AND: one family, whose
    /// function l concatenates those of every predicate.
    std::vector<HammingLshFamily> families;
    /// AND: tables[l] (compound keys).  OR: tables[i * L + l] for
    /// predicate i.
    std::vector<BlockingTable> tables;
    /// Where its keys start in AllKeys(): the tables of the structures
    /// before it.
    size_t first_key = 0;
  };

  /// Boolean expression over structure membership.
  struct Expr {
    enum class Kind { kStructure, kAnd, kOr, kNot };
    Kind kind = Kind::kStructure;
    size_t structure = 0;
    std::vector<Expr> children;
  };

  AttributeLevelBlocker(Rule rule, std::vector<Structure> structures,
                        Expr expr, std::vector<size_t> generating)
      : rule_(std::move(rule)),
        structures_(std::move(structures)),
        expr_(std::move(expr)),
        generating_(std::move(generating)) {}

  /// The key of the vector packed in `words` in every table of
  /// structure `s`: keys[t] for s.tables[t].  AND: group l's key under
  /// the structure's one family.  OR: predicate i's key of group l at
  /// i * L + l.  One key pass per family; `keys` holds s.tables.size()
  /// keys.
  static void StructureKeys(const Structure& s, const uint64_t* words,
                            std::span<uint64_t> keys);

  /// The keys of `words` in every structure: structure s's StructureKeys
  /// at keys[s.first_key, s.first_key + s.tables.size()).  `keys` holds
  /// TotalTables() keys.
  void AllKeys(const uint64_t* words, std::span<uint64_t> keys) const;

  /// True iff `a` collides in structure `s`, in any group/table, with
  /// the vector whose AllKeys() are `keys`.
  static bool CollidesInStructure(const Structure& s, const uint64_t* a,
                                  std::span<const uint64_t> keys);

  /// The rule's expression on (a, b), b given by its AllKeys().
  bool EvaluateExpr(const Expr& expr, const uint64_t* a,
                    std::span<const uint64_t> b_keys) const;

  Rule rule_;
  std::vector<Structure> structures_;
  Expr expr_;
  /// Structures probed for candidate generation.
  std::vector<size_t> generating_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_
