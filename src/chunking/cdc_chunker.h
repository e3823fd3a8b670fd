// Content-defined chunking with Rabin fingerprinting.
//
// Cuts a chunk boundary where the rolling Rabin fingerprint matches a content
// pattern (fp mod avgSize == avgSize-1), subject to configured minimum and
// maximum chunk sizes — the scheme described in Section 2.1 of the paper.
// Boundaries depend only on local content, so insertions/deletions shift
// chunk boundaries only locally (content-shift robustness).
//
// The boundaries are those of the textbook loop that slides every byte of a
// chunk through a Rabin window reset at the chunk's start. The scan kernel
// (CdcBoundaryScanner) finds the same boundaries with less work:
//  - The first cut test comes at chunk length minSize and sees the window
//    [minSize - windowSize, minSize). A reset window holds zeros, and zero
//    bytes add nothing to a Rabin fingerprint (rabin.h), so the fingerprint
//    there depends on those windowSize bytes alone. The kernel starts
//    hashing minSize - windowSize bytes into each chunk; skipping the prefix
//    is exact, not an approximation.
//  - The byte leaving the window is read from the input itself (or, for the
//    first windowSize bytes after a push boundary, from the stream's carried
//    partial chunk), not from a ring buffer.
#pragma once

#include <memory>

#include "chunking/chunker.h"
#include "chunking/rabin.h"

namespace freqdedup {

struct CdcParams {
  uint32_t minSize = 2048;
  uint32_t avgSize = 8192;   // must be a power of two
  uint32_t maxSize = 16384;
  uint32_t windowSize = 48;
  uint64_t poly = kDefaultRabinPoly;
};

/// The boundary scan shared by CdcChunker::split() and its ChunkStream.
class CdcBoundaryScanner {
 public:
  explicit CdcBoundaryScanner(const CdcParams& params);

  /// Continues one chunk: `prev` holds the chunk's bytes already scanned
  /// (the caller's carried partial chunk; empty at a chunk start), `fp` the
  /// state the previous call left (0 at a chunk start), and `data` the
  /// chunk's next bytes. Returns the number of `data` bytes up to and
  /// including the cut and resets `fp` to 0; or returns 0 when the chunk
  /// does not end within `data`, with `fp` updated to cover it.
  [[nodiscard]] size_t findCut(ByteView prev, ByteView data,
                               uint64_t& fp) const;

 private:
  size_t minSize_;
  size_t maxSize_;
  size_t windowSize_;
  uint64_t mask_;
  RabinWindow rabin_;  // only its tables are used (append()/roll())
};

class CdcChunker final : public Chunker {
 public:
  /// Throws std::invalid_argument on out-of-range parameters (zero sizes,
  /// non-power-of-two avgSize, minSize below the window, min > avg > max).
  explicit CdcChunker(const CdcParams& params = {});

  [[nodiscard]] std::vector<ChunkSpan> split(ByteView data) const override;

  [[nodiscard]] std::unique_ptr<ChunkStream> makeStream(
      ChunkSink sink) const override;

  [[nodiscard]] const CdcParams& params() const { return params_; }

 private:
  CdcParams params_;
  CdcBoundaryScanner scanner_;
};

}  // namespace freqdedup
