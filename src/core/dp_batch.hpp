// Problems per DP engine sweep, as reported in run descriptors.
//
// Every solve sweeps one problem: bound pruning is per problem (its own
// incumbent, bound and certification), and a lane-interleaved sweep would
// have to keep every row live that any problem needs. One pruned sweep per
// problem measured faster on every workload (DESIGN.md section 15), so
// cache misses solve one at a time through VelocityPlanner::plan()/replan().
#pragma once

#include <cstddef>

namespace evvo::core {

/// Always 1 (see the header comment).
inline std::size_t dp_batch_lanes() { return 1; }

}  // namespace evvo::core
