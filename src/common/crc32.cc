#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define FDD_CRC32C_SSE42 1
#endif

namespace freqdedup {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC-32C polynomial

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic byte table; kTables[k][b] is the CRC register
// contribution of byte b followed by k zero bytes, which lets the portable
// loop fold eight input bytes per step with eight independent lookups.
constexpr Tables makeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr Tables kTables = makeTables();

inline uint64_t loadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;  // one unaligned load on little-endian targets
}

/// Raw register update (no pre/post inversion) over n bytes.
uint32_t extendPortable(uint32_t crc, const uint8_t* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t v = loadLe64(p) ^ crc;
    crc = kTables[7][v & 0xFF] ^ kTables[6][(v >> 8) & 0xFF] ^
          kTables[5][(v >> 16) & 0xFF] ^ kTables[4][(v >> 24) & 0xFF] ^
          kTables[3][(v >> 32) & 0xFF] ^ kTables[2][(v >> 40) & 0xFF] ^
          kTables[1][(v >> 48) & 0xFF] ^ kTables[0][v >> 56];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
  return crc;
}

#ifdef FDD_CRC32C_SSE42

// The crc32 instruction has a latency of three cycles but can start every
// cycle, so one dependent chain leaves two thirds of it idle. Large buffers
// therefore run three chains over three adjacent blocks of equal length and
// merge them: the register is linear in its input, so the CRC of A ++ B is
// shift_|B|(crc(A)) ^ crc_from_zero(B), where shift_n advances a register
// over n zero bytes. shift_n is itself linear, so it is four byte-indexed
// table lookups; one table set exists per block length.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

class ShiftTables {
 public:
  explicit ShiftTables(size_t zeroBytes) {
    uint32_t basis[32];
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t v = 1u << bit;
      for (size_t i = 0; i < zeroBytes; ++i) v = (v >> 8) ^ kTables[0][v & 0xFF];
      basis[bit] = v;
    }
    for (int k = 0; k < 4; ++k)
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t r = 0;
        for (int i = 0; i < 8; ++i)
          if ((b >> i) & 1) r ^= basis[8 * k + i];
        t[k][b] = r;
      }
  }

  [[nodiscard]] uint32_t shift(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }

 private:
  std::array<std::array<uint32_t, 256>, 4> t;
};

struct BlockShifts {
  ShiftTables longBlock{kLongBlock};
  ShiftTables shortBlock{kShortBlock};
};

__attribute__((target("sse4.2"))) uint32_t extendSse42(uint32_t crc,
                                                        const uint8_t* p,
                                                        size_t n) {
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; ++p, --n)
    crc = _mm_crc32_u8(crc, *p);
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

/// Consumes whole triples of `len`-byte blocks from (p, n).
__attribute__((target("sse4.2"))) void extendTriples(
    uint32_t& crc, const uint8_t*& p, size_t& n, size_t len,
    const ShiftTables& shift) {
  for (; n >= 3 * len; p += 2 * len, n -= 3 * len) {
    uint64_t c0 = crc;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (const uint8_t* end = p + len; p < end; p += 8) {
      uint64_t v0, v1, v2;
      std::memcpy(&v0, p, 8);
      std::memcpy(&v1, p + len, 8);
      std::memcpy(&v2, p + 2 * len, 8);
      c0 = _mm_crc32_u64(c0, v0);
      c1 = _mm_crc32_u64(c1, v1);
      c2 = _mm_crc32_u64(c2, v2);
    }
    crc = shift.shift(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1);
    crc = shift.shift(crc) ^ static_cast<uint32_t>(c2);
  }
}

__attribute__((target("sse4.2"))) uint32_t extendSse42Interleaved(
    uint32_t crc, const uint8_t* p, size_t n) {
  static const BlockShifts kShifts;
  if (n >= 3 * kShortBlock) {
    // Align once so every 8-byte load in the three chains is aligned.
    for (; (reinterpret_cast<uintptr_t>(p) & 7) != 0; ++p, --n)
      crc = _mm_crc32_u8(crc, *p);
    extendTriples(crc, p, n, kLongBlock, kShifts.longBlock);
    extendTriples(crc, p, n, kShortBlock, kShifts.shortBlock);
  }
  return extendSse42(crc, p, n);
}

#endif  // FDD_CRC32C_SSE42

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

struct Kernel {
  ExtendFn extend;
  ExtendFn singleStream;
  const char* name;
};

Kernel selectKernel() {
#ifdef FDD_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2"))
    return {extendSse42Interleaved, extendSse42, "sse4.2"};
#endif
  return {extendPortable, extendPortable, "portable"};
}

const Kernel& kernel() {
  static const Kernel k = selectKernel();
  return k;
}

}  // namespace

uint32_t crc32cExtend(uint32_t crc, ByteView data) {
  return ~kernel().extend(~crc, data.data(), data.size());
}

uint32_t crc32c(ByteView data) { return crc32cExtend(0, data); }

const char* crc32cImplementation() { return kernel().name; }

namespace detail {

uint32_t crc32cExtendPortable(uint32_t crc, ByteView data) {
  return ~extendPortable(~crc, data.data(), data.size());
}

uint32_t crc32cExtendSingleStream(uint32_t crc, ByteView data) {
  return ~kernel().singleStream(~crc, data.data(), data.size());
}

}  // namespace detail

}  // namespace freqdedup
