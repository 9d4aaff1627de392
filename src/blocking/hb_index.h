// The HB index of cBV-HB: the VectorStore arena of c-vectors, an
// HbBlocker whose tables hold arena slots — record-level (Section 4.2) or
// rule-aware attribute-level (Section 5.4) — and Algorithm 2's matcher
// over the two.  It is the only code that gives records slots: a write
// stores the vector first, then indexes its blocking keys at the slot
// the arena returned.  Callers see records, never slots.  It has no
// encoder: the linkage unit of the three-party protocol receives
// vectors only.

#ifndef CBVLINK_BLOCKING_HB_INDEX_H_
#define CBVLINK_BLOCKING_HB_INDEX_H_

#include <span>
#include <vector>

#include "src/blocking/hb_blocker.h"
#include "src/blocking/matcher.h"

namespace cbvlink {

class ThreadPool;

/// Arena + HB blocker + matcher.  Keys a removed or overwritten vector
/// was indexed under stay in the tables until a rebuild (EmptyCopy +
/// InsertAll); they only yield candidates the matcher skips or checks,
/// rule membership and classification alike, on the current bits.  Not
/// thread-safe.
class HbIndex {
 public:
  /// An index over `blocker`, which must hold no records.
  explicit HbIndex(HbBlocker blocker);

  HbIndex(HbIndex&& other) noexcept;
  HbIndex& operator=(HbIndex&& other) noexcept;

  /// An empty index over the same hash functions whose buckets hold at
  /// most `bucket_cap` slots (0 = unlimited).
  HbIndex EmptyCopy(size_t bucket_cap) const;

  /// First-wins insert: stores `record` (a repeated live id keeps its
  /// first vector and slot) and indexes its blocking keys at its slot.
  void Insert(const EncodedRecord& record);

  /// Insert for every record in order: InsertRows with each row copied
  /// from its record, so the blocker's two-phase BulkInsert runs over
  /// `pool` (null = inline) and the tables are identical to an Insert
  /// loop at any thread count.
  void InsertAll(const std::vector<EncodedRecord>& records,
                 ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Rows for InsertRows' writer: rows[i] is the zeroed row record i's
  /// vector goes in.
  using RowsWriter = FunctionRef<void(std::span<uint64_t* const> rows)>;

  /// InsertAll for `num_bits`-wide records whose vectors the caller
  /// writes in place: record i has id `ids[i]`.  One serial pass gives
  /// every id its slot (first wins, as in Insert) and grows the arena
  /// once; `write` is then called once to write every row — the arena
  /// row of a record the store keeps, a spare row for one whose id
  /// already holds a row (its keys still point at that row, as Insert's
  /// do) — and the rows are keyed and indexed over `pool`.  The store
  /// and tables equal InsertAll over the written records.
  void InsertRows(std::span<const RecordId> ids, size_t num_bits,
                  RowsWriter write, ThreadPool* pool = nullptr,
                  size_t min_chunk = 0);

  /// Overwrite: stores `record` in its id's slot with the new bits (a
  /// new id gets a fresh slot, a removed id is brought back) and indexes
  /// its blocking keys there.
  void Put(const EncodedRecord& record);

  /// The blocker's KeyMatrix of `records`.  Reads only the hash
  /// functions, so it may run while another thread writes the index.
  std::vector<uint64_t> KeyMatrix(std::span<const EncodedRecord> records,
                                  ThreadPool* pool = nullptr) const;

  /// Put for every record in order, with `keys` = KeyMatrix(records),
  /// inline; the tables equal those of a Put loop.
  void PutAll(std::span<const EncodedRecord> records,
              std::span<const uint64_t> keys);

  /// Sets `id`'s dead-slot bit.  False when `id` is not live.
  bool Remove(RecordId id) { return store_.Remove(id); }

  /// True when `id` is stored and not removed.
  bool IsLive(RecordId id) const {
    const uint32_t slot = store_.DenseIndex(id);
    return slot != VectorStore::kNotFound && !store_.IsDead(slot);
  }

  /// Algorithm 2 over the index.
  const Matcher& matcher() const { return matcher_; }

  const VectorStore& store() const { return store_; }
  const HbBlocker& blocker() const { return blocker_; }

  /// The sum of the blocker's structures' L (record-level: L).
  size_t blocking_groups() const;

 private:
  Matcher MakeMatcher() const;

  VectorStore store_;
  HbBlocker blocker_;
  /// Over store_ and blocker_; rebuilt when the index moves.
  Matcher matcher_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_HB_INDEX_H_
