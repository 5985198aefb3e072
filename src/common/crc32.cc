#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define TOPK_CRC32C_X86 1
#endif

namespace topk {

namespace {

/// Slicing-by-8 tables: entries[0] is the byte-at-a-time table, and
/// entries[k][b] advances the CRC of byte `b` followed by k zero bytes, so
/// eight table lookups consume one 8-byte word.
struct Crc32cTables {
  uint32_t entries[8][256];

  Crc32cTables() {
    constexpr uint32_t kPolynomial = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xff];
      }
    }
  }
};

uint32_t LoadLittleEndian32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  static const Crc32cTables tables;
  const auto& t = tables.entries;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ crc;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

#if defined(TOPK_CRC32C_X86)

// Neither build passes -march, so the instruction is enabled for this one
// function and only reached after the runtime CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc64 = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  if (n & 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u32(crc, word);
    p += 4;
  }
  if (n & 2) {
    uint16_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u16(crc, word);
    p += 2;
  }
  if (n & 1) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}

bool Crc32cHardwareAvailable() {
  __builtin_cpu_init();  // safe even before static constructors have run
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n) {
  return Crc32cPortable(crc, data, n);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

}  // namespace internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  static const auto impl = internal::Crc32cHardwareAvailable()
                               ? &internal::Crc32cHardware
                               : &internal::Crc32cPortable;
  return impl(crc, data, n);
}

}  // namespace topk
