// Former header of HbBlocker's rule-aware mode; see record_blocker.h.

#ifndef CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_
#define CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_

#include "src/blocking/record_blocker.h"

#endif  // CBVLINK_BLOCKING_ATTRIBUTE_BLOCKER_H_
