#ifndef TOPK_COMMON_CRC32_H_
#define TOPK_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace topk {

/// Incremental CRC-32C (Castagnoli) over `data`. Start with `crc = 0` and
/// chain calls for streaming data. Used to checksum run files so that
/// storage corruption is detected before wrong rows reach a query result.
///
/// Runs the SSE4.2 CRC32 instruction when the CPU has it (chosen once, at
/// the first call) and a portable slicing-by-8 table otherwise. Both paths
/// compute the same function, so checksums stored by either verify on the
/// other.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

namespace internal {

/// The two implementations Crc32c dispatches between, exposed so tests and
/// benchmarks can compare them. Crc32cHardware may only be called when
/// Crc32cHardwareAvailable() is true.
bool Crc32cHardwareAvailable();
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);

}  // namespace internal

}  // namespace topk

#endif  // TOPK_COMMON_CRC32_H_
