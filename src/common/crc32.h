// CRC-32C (Castagnoli) checksums for on-disk record framing.
//
// One kernel serves every caller (container frames, block-cache payload
// checks, wire frames, WAL records, checkpoints, recipes, trace files). It
// is chosen once, on first use: the SSE4.2 crc32 instruction on x86-64 CPUs
// that have it (three interleaved chains on buffers of 768 bytes or more),
// else a portable slicing-by-8 table loop. Both compute the
// same function, so every stored or transmitted checksum is independent of
// the machine that wrote it.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace freqdedup {

/// CRC-32C of a byte range (initial value 0).
uint32_t crc32c(ByteView data);

/// Incremental form: extend a running CRC with more data.
/// crc32cExtend(crc32c(a), b) == crc32c(a ++ b).
uint32_t crc32cExtend(uint32_t crc, ByteView data);

/// Name of the kernel crc32c()/crc32cExtend() run on this CPU: "sse4.2" or
/// "portable".
const char* crc32cImplementation();

namespace detail {

/// The portable slicing-by-8 kernel, callable on every CPU so tests can
/// check it against the dispatched one.
uint32_t crc32cExtendPortable(uint32_t crc, ByteView data);

/// The dispatched kernel with one dependent chain only: the hardware path
/// without its three-way interleave of large buffers (the portable kernel
/// where there is no hardware path). For tests, and for the bench that
/// weighs the interleave.
uint32_t crc32cExtendSingleStream(uint32_t crc, ByteView data);

}  // namespace detail

}  // namespace freqdedup
