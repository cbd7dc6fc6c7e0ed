// Counting replacement for the global operator new/delete (counting_new.cpp).
// Linked only into the test binaries whose zero-allocation assertions must
// see every heap allocation, std::vector growth included; the tensor pool's
// own counters miss those.
#pragma once

#include <cstdint>

namespace cq::test {

/// Calls to the global operator new so far, from any thread.
std::uint64_t heap_allocs();

}  // namespace cq::test
