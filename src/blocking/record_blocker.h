// Former names of HbBlocker (src/blocking/hb_blocker.h), kept only
// because perfbench/workload.cc still names them; nothing else may use
// them.  Delete this header and attribute_blocker.h once that workload
// names HbBlocker.

#ifndef CBVLINK_BLOCKING_RECORD_BLOCKER_H_
#define CBVLINK_BLOCKING_RECORD_BLOCKER_H_

#include "src/blocking/hb_blocker.h"

namespace cbvlink {

using RecordLevelBlocker = HbBlocker;
using AttributeLevelBlocker = HbBlocker;

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_RECORD_BLOCKER_H_
