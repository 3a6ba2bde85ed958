// CRC-32C (Castagnoli) used to checksum WAL records and pages.
#pragma once

#include <cstddef>
#include <cstdint>

namespace auxlsm {

/// Computes CRC-32C of data[0, n), seeded with an optional running crc.
/// Runs on the SSE4.2 crc32 instruction when CPUID reports it (chosen once,
/// on first call), else on a portable table loop; both give the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

/// Masks a crc so that a crc of data containing embedded crcs stays robust
/// (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace auxlsm
