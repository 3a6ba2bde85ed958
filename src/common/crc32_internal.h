// Internal to common/crc32.cc and its tests: the portable CRC-32C path.
// Crc32c (common/crc32.h) dispatches to the SSE4.2 instruction where the CPU
// has it; this table loop is the fallback elsewhere and the reference the
// tests hold the hardware path to.
#pragma once

#include <cstddef>
#include <cstdint>

namespace auxlsm::crc32_internal {

/// Table-driven CRC-32C, one byte at a time; same contract as Crc32c.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc);

}  // namespace auxlsm::crc32_internal
