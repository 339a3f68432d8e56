// Counting replacement of the global allocator (tests/alloc_count.cpp).
// A test binary that links it can diff allocations() across a window to
// prove a hot path allocation-free.
#pragma once

#include <cstdint>

namespace mflow::test {

/// Calls of any replaced operator new flavour (plain, array, over-aligned)
/// since program start, from any thread.
std::uint64_t allocations();

}  // namespace mflow::test
