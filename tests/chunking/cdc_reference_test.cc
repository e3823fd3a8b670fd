// The CDC scan kernel against the frozen ring-buffer loop (cdc_reference.h):
// split() and makeStream() at every push granularity must cut exactly where
// the reference does, across parameter corner cases (minSize at the window
// size, one past it, minSize == avgSize == maxSize, the defaults) and data
// shapes (random, constant, low-entropy, corpus bytes). The push steps 47,
// 48 and 49 put push boundaries inside the skipped prefix of a chunk and
// inside the first window after it.
#include "cdc_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chunking/cdc_chunker.h"
#include "common/rng.h"
#include "datagen/file_corpus.h"

namespace freqdedup {
namespace {

struct NamedParams {
  const char* name;
  CdcParams params;
};

std::vector<NamedParams> paramCases() {
  CdcParams minAtWindow;
  minAtWindow.minSize = 48;
  minAtWindow.avgSize = 256;
  minAtWindow.maxSize = 1024;
  CdcParams minPastWindow = minAtWindow;
  minPastWindow.minSize = 49;
  CdcParams allEqual;
  allEqual.minSize = 1024;
  allEqual.avgSize = 1024;
  allEqual.maxSize = 1024;
  return {{"Defaults", CdcParams{}},
          {"MinAtWindow", minAtWindow},
          {"MinPastWindow", minPastWindow},
          {"MinAvgMaxEqual", allEqual}};
}

struct NamedData {
  std::string name;
  ByteVec bytes;
};

std::vector<NamedData> dataCases() {
  std::vector<NamedData> cases;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    ByteVec data(192 * 1024 + seed * 131);
    for (auto& b : data) b = static_cast<uint8_t>(rng.next());
    cases.push_back({"Random" + std::to_string(seed), std::move(data)});
  }
  cases.push_back({"Zeros", ByteVec(200 * 1024, 0)});
  cases.push_back({"Constant", ByteVec(200 * 1024, 0xA5)});
  {
    // Low entropy: long runs of a few byte values.
    Rng rng(99);
    ByteVec data;
    while (data.size() < 300 * 1024) {
      const uint8_t value = static_cast<uint8_t>(rng.next() % 3);
      data.insert(data.end(), 1 + rng.next() % 600, value);
    }
    cases.push_back({"LowEntropy", std::move(data)});
  }
  {
    CorpusParams params;
    params.seed = 5;
    params.fileCount = 24;
    params.targetBytes = 2 * 1024 * 1024;
    params.poolBlocks = 40;
    ByteVec data;
    for (const auto& [name, content] : generateCorpus(params))
      appendBytes(data, content);
    cases.push_back({"Corpus", std::move(data)});
  }
  return cases;
}

/// Spans emitted by streaming `data` in `step`-byte pushes (0 = whole),
/// checking each emitted chunk's bytes against the buffer.
std::vector<ChunkSpan> streamSpans(const CdcChunker& chunker, ByteView data,
                                   size_t step) {
  std::vector<ChunkSpan> spans;
  size_t offset = 0;
  const auto stream = chunker.makeStream([&](ByteView chunk) {
    const ByteView expected = data.subspan(offset, chunk.size());
    EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), expected.begin()))
        << "chunk bytes differ at offset " << offset;
    spans.push_back({offset, static_cast<uint32_t>(chunk.size())});
    offset += chunk.size();
  });
  if (step == 0) step = data.size();
  for (size_t off = 0; off < data.size(); off += step)
    stream->push(data.subspan(off, std::min(step, data.size() - off)));
  stream->flush();
  return spans;
}

class CdcMatchesReference : public ::testing::TestWithParam<size_t> {};

TEST_P(CdcMatchesReference, SplitAndStreamAtEveryGranularity) {
  const NamedParams pc = paramCases()[GetParam()];
  const CdcChunker chunker(pc.params);
  for (const NamedData& dc : dataCases()) {
    SCOPED_TRACE(dc.name);
    const std::vector<ChunkSpan> expected =
        reference::cdcSplit(pc.params, dc.bytes);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(chunker.split(dc.bytes), expected);
    for (const size_t step : {size_t{1}, size_t{7}, size_t{47}, size_t{48},
                              size_t{49}, size_t{4096}, size_t{1} << 20,
                              size_t{0}}) {
      SCOPED_TRACE("push step " + std::to_string(step));
      ASSERT_EQ(streamSpans(chunker, dc.bytes, step), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, CdcMatchesReference, ::testing::Range<size_t>(0, 4),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(paramCases()[info.param].name);
    });

TEST(CdcReferenceStream, ReusedAcrossObjects) {
  // flush() must leave no scan state behind: the second object chunks as if
  // the stream were fresh.
  CdcParams params;
  params.minSize = 64;
  params.avgSize = 256;
  params.maxSize = 1024;
  const CdcChunker chunker(params);
  Rng rng(7);
  ByteVec first(5000), second(70000);
  for (auto& b : first) b = static_cast<uint8_t>(rng.next());
  for (auto& b : second) b = static_cast<uint8_t>(rng.next());

  std::vector<size_t> sizes;
  const auto stream =
      chunker.makeStream([&](ByteView c) { sizes.push_back(c.size()); });
  stream->push(first);
  stream->flush();
  sizes.clear();
  for (size_t off = 0; off < second.size(); off += 100)
    stream->push(ByteView(second).subspan(off, std::min<size_t>(
                                                   100, second.size() - off)));
  stream->flush();

  std::vector<size_t> expected;
  for (const ChunkSpan& s : reference::cdcSplit(params, second))
    expected.push_back(s.size);
  EXPECT_EQ(sizes, expected);
}

}  // namespace
}  // namespace freqdedup
