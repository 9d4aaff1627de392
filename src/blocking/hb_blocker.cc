#include "src/blocking/hb_blocker.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/lsh/params.h"
#include "src/rules/probability.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {

namespace {

/// Effective K for an m-bit space.  Distinct sampling cannot draw more
/// positions than the range holds; a larger configured K never added
/// selectivity anyway (the extra draws were guaranteed duplicates under
/// the old with-replacement sampling), so it is clamped with a notice
/// rather than rejected.
size_t ClampK(size_t K, size_t num_bits, const char* what) {
  if (K <= num_bits) return K;
  std::fprintf(stderr,
               "cbvlink: %s K = %zu exceeds the %zu-bit space; clamping "
               "to %zu (distinct bit positions)\n",
               what, K, num_bits, num_bits);
  return num_bits;
}

/// True when every child of `rule` is a bare predicate.
bool AllChildrenArePredicates(const Rule& rule) {
  for (const Rule& child : rule.children()) {
    if (child.kind() != Rule::Kind::kPredicate) return false;
  }
  return true;
}

}  // namespace

void SlotCandidateSource::ForEachCandidate(
    const BitVector& probe, const std::function<void(RecordId)>& cb) const {
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> bucket) {
    for (const uint32_t slot : bucket) cb(slot_ids_[slot]);
  });
}

void SlotCandidateSource::ForEachCandidateSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const RecordId>)> cb) const {
  constexpr size_t kChunk = 64;
  RecordId ids[kChunk];
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> bucket) {
    for (size_t first = 0; first < bucket.size(); first += kChunk) {
      const size_t n = std::min(kChunk, bucket.size() - first);
      for (size_t i = 0; i < n; ++i) ids[i] = slot_ids_[bucket[first + i]];
      cb(std::span<const RecordId>(ids, n));
    }
  });
}

void SlotCandidateSource::AssignSlots(std::span<const EncodedRecord> records,
                                      std::span<const uint32_t> slots) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] >= slot_ids_.size()) slot_ids_.resize(size_t{slots[i]} + 1);
    slot_ids_[slots[i]] = records[i].id;
  }
}

std::vector<uint32_t> SlotCandidateSource::NextSlots(size_t n) const {
  std::vector<uint32_t> slots(n);
  std::iota(slots.begin(), slots.end(),
            static_cast<uint32_t>(slot_ids_.size()));
  return slots;
}

HbBlocker::HbBlocker(std::vector<Structure> structures, Expr expr,
                     std::vector<size_t> generating, size_t bucket_cap)
    : structures_(std::move(structures)),
      expr_(std::move(expr)),
      generating_(std::move(generating)) {
  size_t num_tables = 0;
  for (Structure& s : structures_) {
    s.first_key = num_tables;
    num_tables += NumTables(s);
  }
  tables_.assign(num_tables, BlockingTable(bucket_cap));
}

HbBlocker::HbBlocker(HammingLshFamily family, size_t bucket_cap)
    : HbBlocker(
          [&] {
            // Record-level blocking: one AND structure, generating and
            // alone in the expression.
            std::vector<Structure> structures(1);
            structures[0].L = family.L();
            structures[0].families.push_back(std::move(family));
            return structures;
          }(),
          Expr{}, {0}, bucket_cap) {}

Result<HbBlocker> HbBlocker::Create(size_t num_bits, size_t K, size_t theta,
                                    double delta, Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<double> p = HammingBaseProbability(theta, num_bits);
  if (!p.ok()) return p.status();
  Result<size_t> L = OptimalGroups(p.value(), K, delta);
  if (!L.ok()) return L.status();
  return CreateWithL(num_bits, K, L.value(), rng);
}

Result<HbBlocker> HbBlocker::CreateWithL(size_t num_bits, size_t K, size_t L,
                                         Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<HammingLshFamily> family =
      HammingLshFamily::CreateFull(K, L, num_bits, rng);
  if (!family.ok()) return family.status();
  return HbBlocker(std::move(family).value());
}

Result<HbBlocker> HbBlocker::Create(const Rule& rule,
                                    const RecordLayout& layout,
                                    const AttributeBlockerOptions& options,
                                    Rng& rng) {
  CBVLINK_RETURN_NOT_OK(rule.Validate(layout.num_attributes()));
  if (options.attribute_K.size() != layout.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("attribute_K has %zu entries for %zu attributes",
                  options.attribute_K.size(), layout.num_attributes()));
  }

  std::vector<Structure> structures;

  // Builds a structure for an AND/OR of predicates (or one predicate) and
  // returns its index.
  auto build_structure = [&](bool is_and,
                             std::vector<Predicate> preds) -> Result<size_t> {
    Structure s;

    // Per-structure L from the rule-composed probability (Eqs. 10-11 into
    // Eq. 2).
    std::vector<AttributeLshParams> params(layout.num_attributes());
    for (size_t i = 0; i < layout.num_attributes(); ++i) {
      params[i].vector_size = layout.segment(i).size;
      // Distinct sampling caps K at the segment width (a larger K was
      // pure duplicate draws); clamp for both the L calibration and the
      // family below so they stay consistent.
      params[i].num_base_hashes =
          std::min(options.attribute_K[i], layout.segment(i).size);
    }
    std::vector<Rule> pred_rules;
    pred_rules.reserve(preds.size());
    for (const Predicate& p : preds) {
      pred_rules.push_back(Rule::Pred(p.attribute, p.threshold));
    }
    const Rule effective =
        pred_rules.size() == 1 ? std::move(pred_rules[0])
        : is_and ? Rule::And(std::move(pred_rules))
                 : Rule::Or(std::move(pred_rules));
    Result<size_t> L = RuleOptimalGroups(effective, params, options.delta);
    if (!L.ok()) return L.status();
    s.L = L.value();

    // One family per predicate, sampled inside that attribute's segment.
    for (const Predicate& p : preds) {
      const RecordLayout::Segment& seg = layout.segment(p.attribute);
      Result<HammingLshFamily> family = HammingLshFamily::Create(
          std::min(options.attribute_K[p.attribute], seg.size), s.L,
          seg.offset, seg.size, rng);
      if (!family.ok()) return family.status();
      s.families.push_back(std::move(family).value());
    }
    if (is_and && s.families.size() > 1) {
      // An AND keys on every predicate's sampled bits at once: function
      // l of the structure's one family concatenates function l of
      // each predicate's, so a key pass covers them all.
      std::vector<std::vector<uint32_t>> lists(s.L);
      for (size_t l = 0; l < s.L; ++l) {
        for (const HammingLshFamily& family : s.families) {
          const std::vector<uint32_t>& positions =
              family.function(l).positions();
          lists[l].insert(lists[l].end(), positions.begin(), positions.end());
        }
      }
      Result<HammingLshFamily> family =
          HammingLshFamily::FromPositions(std::move(lists));
      if (!family.ok()) return family.status();
      s.families.clear();
      s.families.push_back(std::move(family).value());
    }

    structures.push_back(std::move(s));
    return structures.size() - 1;
  };

  // Recursively lowers the rule tree into structures + expression.
  std::function<Result<Expr>(const Rule&)> lower =
      [&](const Rule& node) -> Result<Expr> {
    Expr expr;
    switch (node.kind()) {
      case Rule::Kind::kPredicate: {
        Result<size_t> s = build_structure(true, {node.predicate()});
        if (!s.ok()) return s.status();
        expr.kind = Expr::Kind::kStructure;
        expr.structure = s.value();
        return expr;
      }
      case Rule::Kind::kAnd:
      case Rule::Kind::kOr: {
        const bool is_and = node.kind() == Rule::Kind::kAnd;
        if (AllChildrenArePredicates(node)) {
          std::vector<Predicate> preds;
          node.CollectPredicates(&preds);
          Result<size_t> s = build_structure(is_and, std::move(preds));
          if (!s.ok()) return s.status();
          expr.kind = Expr::Kind::kStructure;
          expr.structure = s.value();
          return expr;
        }
        expr.kind = is_and ? Expr::Kind::kAnd : Expr::Kind::kOr;
        for (const Rule& child : node.children()) {
          Result<Expr> sub = lower(child);
          if (!sub.ok()) return sub.status();
          expr.children.push_back(std::move(sub).value());
        }
        return expr;
      }
      case Rule::Kind::kNot: {
        Result<Expr> sub = lower(node.children()[0]);
        if (!sub.ok()) return sub.status();
        expr.kind = Expr::Kind::kNot;
        expr.children.push_back(std::move(sub).value());
        return expr;
      }
    }
    return Status::Internal("unhandled rule kind");
  };

  Result<Expr> expr = lower(rule);
  if (!expr.ok()) return expr.status();

  // Generating structures: the positive part of the expression that can
  // serve candidates.
  std::function<void(const Expr&, std::vector<size_t>*)> collect =
      [&](const Expr& e, std::vector<size_t>* out) {
        switch (e.kind) {
          case Expr::Kind::kStructure:
            out->push_back(e.structure);
            return;
          case Expr::Kind::kOr:
            for (const Expr& child : e.children) collect(child, out);
            return;
          case Expr::Kind::kAnd:
            // One conjunct suffices: a pair must collide in every
            // conjunct, so probing the first positive child generates a
            // superset of the rule-formulated pairs.
            for (const Expr& child : e.children) {
              std::vector<size_t> sub;
              collect(child, &sub);
              if (!sub.empty()) {
                out->insert(out->end(), sub.begin(), sub.end());
                return;
              }
            }
            return;
          case Expr::Kind::kNot:
            return;  // absence cannot generate candidates
        }
      };
  std::vector<size_t> generating;
  collect(expr.value(), &generating);
  if (generating.empty()) {
    return Status::InvalidArgument(
        "rule has no positive component to generate candidates from "
        "(e.g. a bare NOT)");
  }

  // A disjunction branch that is purely negative is non-blockable: pairs
  // satisfying only that branch (almost all pairs) could never be
  // generated, so the rule's completeness guarantee would silently not
  // hold.  Reject instead.
  std::function<Status(const Expr&)> check_or_branches =
      [&](const Expr& e) -> Status {
    if (e.kind == Expr::Kind::kOr) {
      for (const Expr& child : e.children) {
        std::vector<size_t> child_generating;
        collect(child, &child_generating);
        if (child_generating.empty()) {
          return Status::InvalidArgument(
              "an OR branch consists only of NOT components; pairs "
              "satisfying it alone cannot be generated by blocking");
        }
      }
    }
    for (const Expr& child : e.children) {
      CBVLINK_RETURN_NOT_OK(check_or_branches(child));
    }
    return Status::OK();
  };
  CBVLINK_RETURN_NOT_OK(check_or_branches(expr.value()));
  return HbBlocker(std::move(structures), std::move(expr).value(),
                   std::move(generating), 0);
}

void HbBlocker::StructureKeys(const Structure& s, const uint64_t* words,
                              std::span<uint64_t> keys) {
  for (size_t i = 0; i < s.families.size(); ++i) {
    s.families[i].Keys(words, keys.subspan(i * s.L, s.L));
  }
}

void HbBlocker::AllKeys(const uint64_t* words,
                        std::span<uint64_t> keys) const {
  for (const Structure& s : structures_) {
    StructureKeys(s, words, keys.subspan(s.first_key, NumTables(s)));
  }
}

void HbBlocker::Insert(const EncodedRecord& record, uint32_t slot) {
  AssignSlots({&record, 1}, {&slot, 1});
  KeyBuffer keys(tables_.size());
  AllKeys(record.bits.words().data(), keys.span());
  for (size_t t = 0; t < tables_.size(); ++t) tables_[t].Insert(keys[t], slot);
}

void HbBlocker::BulkInsert(std::span<const EncodedRecord> records,
                           ThreadPool* pool, size_t min_chunk) {
  BulkInsert(records, NextSlots(records.size()), pool, min_chunk);
}

void HbBlocker::BulkInsert(std::span<const EncodedRecord> records,
                           std::span<const uint32_t> slots, ThreadPool* pool,
                           size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(
      reg.GetHistogram("index_build_batch_latency_us"));
  InsertKeys(records, KeyMatrix(records, pool, min_chunk), slots, pool);
  reg.GetCounter("index_build_records_total")->Add(records.size());
}

std::vector<uint64_t> HbBlocker::KeyMatrix(
    std::span<const EncodedRecord> records, ThreadPool* pool,
    size_t min_chunk) const {
  // One contiguous column per table (keys[t * n + i]), sharded over
  // records.  Every cell is written by exactly one chunk, so the matrix
  // is independent of the chunking.
  const size_t num_tables = tables_.size();
  const size_t n = records.size();
  std::vector<uint64_t> keys(n * num_tables);
  ParallelForOrInline(pool, n, min_chunk, [&](size_t, size_t begin,
                                              size_t end) {
    KeyBuffer row(num_tables);
    for (size_t i = begin; i < end; ++i) {
      AllKeys(records[i].bits.words().data(), row.span());
      for (size_t t = 0; t < num_tables; ++t) keys[t * n + i] = row[t];
    }
  });
  return keys;
}

void HbBlocker::InsertKeys(std::span<const EncodedRecord> records,
                           std::span<const uint64_t> keys,
                           std::span<const uint32_t> slots, ThreadPool* pool) {
  AssignSlots(records, slots);
  // Per-table merge in record order — each table is owned by one chunk,
  // and the column walk reproduces the serial insertion sequence
  // exactly.
  const size_t n = slots.size();
  ParallelForOrInline(n <= 1 ? nullptr : pool, tables_.size(), 0,
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t t = begin; t < end; ++t) {
                          tables_[t].BulkInsert(keys.subspan(t * n, n), slots);
                        }
                      });
}

bool HbBlocker::CollidesInStructure(const Structure& s, const uint64_t* a,
                                    std::span<const uint64_t> keys) {
  KeyBuffer keys_a(NumTables(s));
  StructureKeys(s, a, keys_a.span());
  for (size_t t = 0; t < NumTables(s); ++t) {
    if (keys_a[t] == keys[s.first_key + t]) return true;
  }
  return false;
}

bool HbBlocker::EvaluateExpr(const Expr& expr, const uint64_t* a,
                             std::span<const uint64_t> b_keys) const {
  switch (expr.kind) {
    case Expr::Kind::kStructure:
      return CollidesInStructure(structures_[expr.structure], a, b_keys);
    case Expr::Kind::kAnd:
      for (const Expr& child : expr.children) {
        if (!EvaluateExpr(child, a, b_keys)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const Expr& child : expr.children) {
        if (EvaluateExpr(child, a, b_keys)) return true;
      }
      return false;
    case Expr::Kind::kNot:
      return !EvaluateExpr(expr.children[0], a, b_keys);
  }
  return false;
}

bool HbBlocker::FormulatedByRule(const BitVector& a,
                                 const BitVector& b) const {
  KeyBuffer b_keys(tables_.size());
  AllKeys(b.words().data(), b_keys.span());
  return EvaluateExpr(expr_, a.words().data(), b_keys.span());
}

void HbBlocker::FilterFormulated(const BitVector& probe, const uint64_t* rows,
                                 size_t stride,
                                 std::span<const uint32_t> slots,
                                 uint8_t* keep) const {
  KeyBuffer probe_keys(tables_.size());
  AllKeys(probe.words().data(), probe_keys.span());
  for (size_t i = 0; i < slots.size(); ++i) {
    keep[i] = EvaluateExpr(expr_, rows + size_t{slots[i]} * stride,
                           probe_keys.span())
                  ? 1
                  : 0;
  }
}

bool HbBlocker::ForEachSlotSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const uint32_t>)> cb) const {
  KeyBuffer keys(tables_.size());
  AllKeys(probe.words().data(), keys.span());
  ProbeBatch batch;
  bool overflowed = false;
  for (size_t si : generating_) {
    const Structure& s = structures_[si];
    // Group order: an OR structure probes every predicate's table of
    // group l before group l + 1.
    for (size_t l = 0; l < s.L; ++l) {
      for (size_t i = 0; i < s.families.size(); ++i) {
        const size_t t = s.first_key + i * s.L + l;
        batch.Add(tables_[t], keys[t]);
        if (batch.full()) overflowed |= batch.Flush(cb);
      }
    }
  }
  return batch.Flush(cb) || overflowed;
}

size_t HbBlocker::table_K(size_t t) const {
  for (const Structure& s : structures_) {
    if (t < s.first_key + NumTables(s)) {
      return s.families[(t - s.first_key) / s.L].K();
    }
  }
  return 0;
}

}  // namespace cbvlink
