// FROZEN REFERENCE — DO NOT EDIT.
//
// The byte-at-a-time table loop that computed every CRC-32C this project
// wrote before the dispatched kernel in common/crc32.cc replaced it. It is
// the "before" side of bench/chunk_throughput's crc32c rows, so the ratio
// CI gates on always compares against the same loop.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace freqdedup::reference {

namespace crc32c_detail {

constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC-32C polynomial

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = makeTable();

}  // namespace crc32c_detail

inline uint32_t crc32cExtend(uint32_t crc, ByteView data) {
  crc = ~crc;
  for (uint8_t b : data)
    crc = (crc >> 8) ^ crc32c_detail::kTable[(crc ^ b) & 0xFF];
  return ~crc;
}

}  // namespace freqdedup::reference
