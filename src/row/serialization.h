#ifndef TOPK_ROW_SERIALIZATION_H_
#define TOPK_ROW_SERIALIZATION_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "row/row.h"

namespace topk {

/// Run-file row wire format (little-endian):
///   [key: f64][id: u64][payload_len: u32][payload bytes]
/// The format is self-delimiting so runs can hold variable-size rows.

/// Appends the serialized form of `row` to `out`.
void SerializeRow(const Row& row, std::string* out);

/// Writes the serialized form of `row` to `out`, which has room for
/// row.SerializedSize() bytes.
void SerializeRowTo(const Row& row, char* out);

/// Parses one row from `data + *offset`, advancing `*offset`. Returns
/// Corruption if the buffer is truncated.
Status DeserializeRow(const char* data, size_t size, size_t* offset, Row* row);

/// Fixed per-row header size of the wire format.
inline constexpr size_t kRowHeaderBytes =
    sizeof(double) + sizeof(uint64_t) + sizeof(uint32_t);

/// The fixed-size head of one serialized row.
struct RowHeader {
  double key = 0.0;
  uint64_t id = 0;
  uint32_t payload_len = 0;
};

/// Decodes the kRowHeaderBytes at `data`.
RowHeader ReadRowHeader(const char* data);

/// Hard format limit on a row's payload. Enforced at write time
/// (InvalidArgument) and at read time (Corruption) — a corrupt length
/// field must not trigger a multi-gigabyte allocation. The wire format's
/// length field is 32 bits; this limit (far below 4 GiB) guarantees the
/// narrowing cast in SerializeRow can never truncate.
inline constexpr uint32_t kMaxRowPayloadBytes = 64u << 20;

/// Rejects rows whose payload exceeds the wire-format limit. Called where
/// rows enter an operator or a run file, so an oversized payload fails
/// loudly with InvalidArgument at append time instead of silently
/// truncating its length through the uint32_t cast at serialization time.
Status ValidateRowPayload(const Row& row);

}  // namespace topk

#endif  // TOPK_ROW_SERIALIZATION_H_
