// Heap allocation counting for the traced benchmark binary, which replaces
// the global operator new/delete (alloc_counter.cpp). The timed binary does
// not link it, so timed runs use the standard allocator untouched.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since process start.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
