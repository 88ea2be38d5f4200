// Length-field mutations of an STK2 container, for fuzzing the checkpoint
// loader past its CRC gate.
//
// A single flipped byte is rejected by the whole-file CRC before any length
// field is trusted (test_robustness covers that).  To reach the bounds
// checks behind the gate, a mutation must carry valid CRCs: this helper
// walks a well-formed container, lists every length and count field, and
// rewrites one of them with the CRC that covers it (metadata or record)
// and the whole-file trailer recomputed.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/crc32.h"

namespace spiketune::testing_stk2 {

/// One 8-byte length or count field, and the CRC-covered span it sits in
/// (the span's CRC is stored at `crc_end`; crc_end == 0: only the
/// whole-file CRC covers the field).
struct Field {
  std::size_t offset = 0;
  std::size_t crc_begin = 0;
  std::size_t crc_end = 0;
  std::string what;
};

inline std::uint64_t read_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

/// Every length and count field of the well-formed STK2 buffer `bytes`.
inline std::vector<Field> length_fields(const std::string& bytes) {
  std::vector<Field> fields;
  std::size_t pos = 8;  // magic, version
  const bool has_meta = bytes[pos++] != 0;
  if (has_meta) {
    const std::size_t begin = pos;
    pos += 7 * 8;  // epoch .. lr_scale
    std::vector<std::size_t> offsets = {pos};
    const std::uint64_t entries = read_u64(bytes, pos);
    pos += 8;
    for (std::uint64_t i = 0; i < 2 * entries; ++i) {  // key, value
      offsets.push_back(pos);
      pos += 8 + read_u64(bytes, pos);
    }
    for (std::size_t i = 0; i < offsets.size(); ++i)
      fields.push_back({offsets[i], begin, pos,
                        i == 0 ? "meta entry count" : "meta string length"});
    pos += 4;  // metadata CRC
  }
  fields.push_back({pos, 0, 0, "record count"});
  const std::uint64_t records = read_u64(bytes, pos);
  pos += 8;
  for (std::uint64_t r = 0; r < records; ++r) {
    const std::size_t begin = pos;
    std::vector<Field> record = {{pos, 0, 0, "name length"}};
    pos += 8 + read_u64(bytes, pos);
    record.push_back({pos, 0, 0, "rank"});
    const std::uint64_t rank = read_u64(bytes, pos);
    pos += 8;
    std::uint64_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d) {
      record.push_back({pos, 0, 0, "dimension"});
      numel *= read_u64(bytes, pos);
      pos += 8;
    }
    pos += numel * sizeof(float);
    for (Field& f : record) {
      f.crc_begin = begin;
      f.crc_end = pos;
      fields.push_back(f);
    }
    pos += 4;  // record CRC
  }
  return fields;
}

inline void put_crc(std::string& bytes, std::size_t begin, std::size_t end) {
  const std::uint32_t crc = crc32(bytes.data() + begin, end - begin);
  std::memcpy(&bytes[end], &crc, 4);
}

/// `bytes` with `value` written into `field`, and every CRC over it
/// recomputed so the loader gets past its integrity checks.
inline std::string with_field(std::string bytes, const Field& field,
                              std::uint64_t value) {
  std::memcpy(&bytes[field.offset], &value, 8);
  if (field.crc_end != 0) put_crc(bytes, field.crc_begin, field.crc_end);
  put_crc(bytes, 0, bytes.size() - 4);
  return bytes;
}

/// The values each field is set to: empty, minimal, and sizes whose byte
/// counts overflow 32-bit (and, times sizeof(float), 64-bit) arithmetic.
inline const std::vector<std::uint64_t>& hostile_values() {
  static const std::vector<std::uint64_t> values = {
      0, 1, std::uint64_t{1} << 31, (std::uint64_t{1} << 32) - 1,
      ~std::uint64_t{0}};
  return values;
}

}  // namespace spiketune::testing_stk2
