#include "row/serialization.h"

#include <cstring>

namespace topk {

namespace {

template <typename T>
bool ReadRaw(const char* data, size_t size, size_t* offset, T* v) {
  if (*offset + sizeof(T) > size) return false;
  std::memcpy(v, data + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

Status ValidateRowPayload(const Row& row) {
  if (row.payload.size() > kMaxRowPayloadBytes) {
    return Status::InvalidArgument(
        "row payload of " + std::to_string(row.payload.size()) +
        " bytes exceeds the format limit of " +
        std::to_string(kMaxRowPayloadBytes) + " bytes");
  }
  return Status::OK();
}

void SerializeRow(const Row& row, std::string* out) {
  const size_t offset = out->size();
  out->resize(offset + row.SerializedSize());
  SerializeRowTo(row, out->data() + offset);
}

void SerializeRowTo(const Row& row, char* out) {
  const uint32_t len = static_cast<uint32_t>(row.payload.size());
  std::memcpy(out, &row.key, sizeof(row.key));
  std::memcpy(out + sizeof(row.key), &row.id, sizeof(row.id));
  std::memcpy(out + sizeof(row.key) + sizeof(row.id), &len, sizeof(len));
  std::memcpy(out + kRowHeaderBytes, row.payload.data(), len);
}

RowHeader ReadRowHeader(const char* data) {
  RowHeader header;
  std::memcpy(&header.key, data, sizeof(header.key));
  std::memcpy(&header.id, data + sizeof(header.key), sizeof(header.id));
  std::memcpy(&header.payload_len,
              data + sizeof(header.key) + sizeof(header.id),
              sizeof(header.payload_len));
  return header;
}

Status DeserializeRow(const char* data, size_t size, size_t* offset,
                      Row* row) {
  double key = 0.0;
  uint64_t id = 0;
  uint32_t len = 0;
  if (!ReadRaw(data, size, offset, &key) ||
      !ReadRaw(data, size, offset, &id) ||
      !ReadRaw(data, size, offset, &len)) {
    return Status::Corruption("row header truncated");
  }
  if (*offset + len > size) {
    return Status::Corruption("row payload truncated");
  }
  row->key = key;
  row->id = id;
  row->payload.assign(data + *offset, len);
  *offset += len;
  return Status::OK();
}

}  // namespace topk
