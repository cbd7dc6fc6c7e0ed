// The library has no intra-op thread pool: every kernel and executor loop
// runs serially on its calling thread, and serve engine workers are the only
// parallelism (DESIGN.md §14). This header stays only because the end-to-end
// benchmark still includes it for the `pool_threads` field of its result
// stamp; it goes when that stamp does.
#pragma once

#include <cstddef>

namespace cq::core {

/// Always 1: the thread count each compute call runs on.
inline std::size_t configured_threads() { return 1; }

}  // namespace cq::core
