#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace auxlsm {
namespace {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  const uint32_t poly = 0x82f63b78u;  // reflected Castagnoli polynomial
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? poly ^ (c >> 1) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}
constexpr std::array<uint32_t, 256> kTable = MakeCrc32cTable();

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC,
// eight bytes per step. Target-attributed so the rest of the build keeps its
// baseline ISA; only called once CPUID has reported SSE4.2.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; p++, n--) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn ChooseCrc32c() {
#if defined(__x86_64__)
  // Explicit init: Crc32c may run from another translation unit's static
  // initializer, before the runtime's own CPU detection has run.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return crc32_internal::Crc32cPortable;
}

}  // namespace

namespace crc32_internal {

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace crc32_internal

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  static const Crc32cFn impl = ChooseCrc32c();
  return impl(data, n, crc);
}

}  // namespace auxlsm
