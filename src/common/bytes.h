// Byte-buffer aliases and small helpers shared across the library.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace freqdedup {

using ByteVec = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;

/// Encodes a byte range as lowercase hex.
std::string hexEncode(ByteView data);

/// Decodes a hex string; throws std::invalid_argument on malformed input.
ByteVec hexDecode(std::string_view hex);

/// Copies a string's bytes into a ByteVec (no encoding applied).
ByteVec toBytes(std::string_view s);

/// Interprets a byte range as a std::string.
std::string toString(ByteView data);

/// Reads a whole file; throws std::runtime_error on failure.
ByteVec readFile(const std::string& path);

/// Writes (truncates) a whole file; throws std::runtime_error on failure.
void writeFile(const std::string& path, ByteView data);

/// Writes (truncates) a file made of `pieces` in order, without first
/// joining them into one buffer; throws std::runtime_error on failure.
void writeFilePieces(const std::string& path,
                     std::initializer_list<ByteView> pieces);

/// Appends 'data' to 'out'.
void appendBytes(ByteVec& out, ByteView data);

/// Little-endian fixed-width integer serialization.
void putU32(ByteVec& out, uint32_t v);
void putU64(ByteVec& out, uint64_t v);
uint32_t getU32(ByteView in, size_t offset);
uint64_t getU64(ByteView in, size_t offset);

}  // namespace freqdedup
