// The record value type shared by every layer.

#ifndef CBVLINK_COMMON_RECORD_H_
#define CBVLINK_COMMON_RECORD_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cbvlink {

/// Identifier attached to every record (the paper's `Id` attribute).
using RecordId = uint64_t;

/// A flat record: an identifier plus one string value per linkage
/// attribute f_1..f_{n_f}, in schema order.
struct Record {
  RecordId id = 0;
  std::vector<std::string> fields;
};

/// A candidate or matched pair of record identifiers, one from each
/// data set (a_id from A, b_id from B).
struct IdPair {
  RecordId a_id = 0;
  RecordId b_id = 0;

  bool operator==(const IdPair&) const = default;
  auto operator<=>(const IdPair&) const = default;
};

/// Prints `pair` as "(a_id, b_id)" — how gtest shows pair lists in a
/// failed expectation, instead of a raw byte dump.
inline void PrintTo(const IdPair& pair, std::ostream* os) {
  *os << '(' << pair.a_id << ", " << pair.b_id << ')';
}

}  // namespace cbvlink

#endif  // CBVLINK_COMMON_RECORD_H_
