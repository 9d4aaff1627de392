#include "src/blocking/attribute_blocker.h"

#include <algorithm>

#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/lsh/params.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {

namespace {

/// True when every child of `rule` is a bare predicate.
bool AllChildrenArePredicates(const Rule& rule) {
  for (const Rule& child : rule.children()) {
    if (child.kind() != Rule::Kind::kPredicate) return false;
  }
  return true;
}

}  // namespace

Result<AttributeLevelBlocker> AttributeLevelBlocker::Create(
    const Rule& rule, const RecordLayout& layout,
    const AttributeBlockerOptions& options, Rng& rng) {
  CBVLINK_RETURN_NOT_OK(rule.Validate(layout.num_attributes()));
  if (options.attribute_K.size() != layout.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("attribute_K has %zu entries for %zu attributes",
                  options.attribute_K.size(), layout.num_attributes()));
  }

  std::vector<Structure> structures;

  // Builds a structure for an AND/OR of predicates (or one predicate) and
  // returns its index.
  auto build_structure = [&](Structure::Kind kind,
                             std::vector<Predicate> preds) -> Result<size_t> {
    Structure s;
    s.kind = kind;
    s.predicates = std::move(preds);

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
    pred_rules.reserve(s.predicates.size());
    for (const Predicate& p : s.predicates) {
      pred_rules.push_back(Rule::Pred(p.attribute, p.threshold));
    }
    const Rule effective =
        pred_rules.size() == 1 ? std::move(pred_rules[0])
        : kind == Structure::Kind::kAnd ? Rule::And(std::move(pred_rules))
                                        : Rule::Or(std::move(pred_rules));
    Result<size_t> L = RuleOptimalGroups(effective, params, options.delta,
                                         options.max_groups);
    if (!L.ok()) return L.status();
    s.L = L.value();

    // One family per predicate, sampled inside that attribute's segment.
    for (const Predicate& p : s.predicates) {
      const RecordLayout::Segment& seg = layout.segment(p.attribute);
      Result<HammingLshFamily> family = HammingLshFamily::Create(
          std::min(options.attribute_K[p.attribute], seg.size), s.L,
          seg.offset, seg.size, rng);
      if (!family.ok()) return family.status();
      s.families.push_back(std::move(family).value());
    }
    if (s.kind == Structure::Kind::kAnd && s.families.size() > 1) {
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

    s.tables.resize(s.kind == Structure::Kind::kAnd
                        ? s.L
                        : s.L * s.predicates.size());
    structures.push_back(std::move(s));
    return structures.size() - 1;
  };

  // Recursively lowers the rule tree into structures + expression.
  std::function<Result<Expr>(const Rule&)> lower =
      [&](const Rule& node) -> Result<Expr> {
    Expr expr;
    switch (node.kind()) {
      case Rule::Kind::kPredicate: {
        Result<size_t> s = build_structure(Structure::Kind::kAnd,
                                           {node.predicate()});
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
          Result<size_t> s = build_structure(
              is_and ? Structure::Kind::kAnd : Structure::Kind::kOr,
              std::move(preds));
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
  for (size_t s = 1; s < structures.size(); ++s) {
    structures[s].first_key =
        structures[s - 1].first_key + structures[s - 1].tables.size();
  }

  return AttributeLevelBlocker(rule, std::move(structures),
                               std::move(expr).value(),
                               std::move(generating));
}

void AttributeLevelBlocker::StructureKeys(const Structure& s,
                                          const uint64_t* words,
                                          std::span<uint64_t> keys) {
  for (size_t i = 0; i < s.families.size(); ++i) {
    s.families[i].Keys(words, keys.subspan(i * s.L, s.L));
  }
}

void AttributeLevelBlocker::Insert(const EncodedRecord& record,
                                   uint32_t slot) {
  AssignSlots({&record, 1}, {&slot, 1});
  for (Structure& s : structures_) {
    KeyBuffer keys(s.tables.size());
    StructureKeys(s, record.bits.words().data(), keys.span());
    for (size_t t = 0; t < s.tables.size(); ++t) {
      s.tables[t].Insert(keys[t], slot);
    }
  }
}

void AttributeLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                       ThreadPool* pool, size_t min_chunk) {
  BulkInsert(records, NextSlots(records.size()), pool, min_chunk);
}

void AttributeLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                       std::span<const uint32_t> slots,
                                       ThreadPool* pool, size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(
      reg.GetHistogram("index_build_batch_latency_us"));
  InsertKeys(records, KeyMatrix(records, pool, min_chunk), slots, pool);
  reg.GetCounter("index_build_records_total")->Add(records.size());
}

std::vector<uint64_t> AttributeLevelBlocker::KeyMatrix(
    std::span<const EncodedRecord> records, ThreadPool* pool,
    size_t min_chunk) const {
  // One contiguous column per table (keys[t * n + i], table t being
  // AllKeys()'s key t), sharded over records.
  const size_t total_tables = TotalTables();
  const size_t n = records.size();
  std::vector<uint64_t> keys(n * total_tables);
  ParallelForOrInline(pool, n, min_chunk, [&](size_t, size_t begin,
                                              size_t end) {
    KeyBuffer row(total_tables);
    for (size_t i = begin; i < end; ++i) {
      AllKeys(records[i].bits.words().data(), row.span());
      for (size_t t = 0; t < total_tables; ++t) keys[t * n + i] = row[t];
    }
  });
  return keys;
}

void AttributeLevelBlocker::InsertKeys(std::span<const EncodedRecord> records,
                                       std::span<const uint64_t> keys,
                                       std::span<const uint32_t> slots,
                                       ThreadPool* pool) {
  // Every structure's tables in AllKeys() order, so the merge can shard
  // them uniformly.
  std::vector<BlockingTable*> tables;
  for (Structure& s : structures_) {
    for (BlockingTable& table : s.tables) tables.push_back(&table);
  }
  AssignSlots(records, slots);

  // Per-table merge in record order.
  const size_t n = slots.size();
  ParallelForOrInline(n <= 1 ? nullptr : pool, tables.size(), 0,
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t t = begin; t < end; ++t) {
                          tables[t]->BulkInsert(keys.subspan(t * n, n), slots);
                        }
                      });
}

AttributeLevelBlocker AttributeLevelBlocker::EmptyCopy(
    size_t bucket_cap) const {
  std::vector<Structure> structures;
  structures.reserve(structures_.size());
  for (const Structure& s : structures_) {
    structures.push_back(Structure{
        s.kind, s.predicates, s.L, s.families,
        std::vector<BlockingTable>(s.tables.size(), BlockingTable(bucket_cap)),
        s.first_key});
  }
  return AttributeLevelBlocker(rule_, std::move(structures), expr_,
                               generating_);
}

void AttributeLevelBlocker::AllKeys(const uint64_t* words,
                                    std::span<uint64_t> keys) const {
  for (const Structure& s : structures_) {
    StructureKeys(s, words, keys.subspan(s.first_key, s.tables.size()));
  }
}

bool AttributeLevelBlocker::CollidesInStructure(
    const Structure& s, const uint64_t* a, std::span<const uint64_t> keys) {
  KeyBuffer keys_a(s.tables.size());
  StructureKeys(s, a, keys_a.span());
  for (size_t t = 0; t < s.tables.size(); ++t) {
    if (keys_a[t] == keys[s.first_key + t]) return true;
  }
  return false;
}

bool AttributeLevelBlocker::EvaluateExpr(
    const Expr& expr, const uint64_t* a,
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

bool AttributeLevelBlocker::FormulatedByRule(const BitVector& a,
                                             const BitVector& b) const {
  KeyBuffer b_keys(TotalTables());
  AllKeys(b.words().data(), b_keys.span());
  return EvaluateExpr(expr_, a.words().data(), b_keys.span());
}

void AttributeLevelBlocker::FilterFormulated(const BitVector& probe,
                                             const uint64_t* rows,
                                             size_t stride,
                                             std::span<const uint32_t> slots,
                                             uint8_t* keep) const {
  KeyBuffer probe_keys(TotalTables());
  AllKeys(probe.words().data(), probe_keys.span());
  for (size_t i = 0; i < slots.size(); ++i) {
    keep[i] = EvaluateExpr(expr_, rows + size_t{slots[i]} * stride,
                           probe_keys.span())
                  ? 1
                  : 0;
  }
}

bool AttributeLevelBlocker::ForEachSlotSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const uint32_t>)> cb) const {
  KeyBuffer keys(TotalTables());
  AllKeys(probe.words().data(), keys.span());
  ProbeBatch batch;
  bool overflowed = false;
  for (size_t si : generating_) {
    const Structure& s = structures_[si];
    // Group order: an OR structure probes every predicate's table of
    // group l before group l + 1.
    const size_t per_group = s.tables.size() / s.L;
    for (size_t l = 0; l < s.L; ++l) {
      for (size_t i = 0; i < per_group; ++i) {
        const size_t t = i * s.L + l;
        batch.Add(s.tables[t], keys[s.first_key + t]);
        if (batch.full()) overflowed |= batch.Flush(cb);
      }
    }
  }
  return batch.Flush(cb) || overflowed;
}

size_t AttributeLevelBlocker::TotalTables() const {
  size_t total = 0;
  for (const Structure& s : structures_) total += s.tables.size();
  return total;
}

}  // namespace cbvlink
