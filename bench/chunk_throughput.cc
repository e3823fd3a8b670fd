// Throughput of the CDC scan kernel against the frozen ring-buffer Rabin
// loop it replaced (tests/chunking/cdc_reference.h), on one thread.
//
//   chunk_throughput [--mb M] [--reps R] [--json PATH]
//
// Chunks M MiB (default 256) of random bytes with the default CdcParams
// three ways: the reference loop, CdcChunker::split(), and a ChunkStream fed
// in 1 MiB pushes (the session client's append size). Each is timed R times
// (default 3), interleaved, and the fastest pass is reported. The bench
// aborts (exit 1) unless all three produce exactly the same boundaries.
// --json writes BENCH_ingest.json (default path) with the MB/s of each
// (MB = 1e6 bytes) and the after/before ratios; the ratios are what CI
// gates on, since absolute MB/s depends on the machine.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cdc_reference.h"
#include "chunking/cdc_chunker.h"
#include "common/rng.h"
#include "expcommon.h"

namespace freqdedup {
namespace {

constexpr size_t kPushBytes = size_t{1} << 20;

std::vector<ChunkSpan> streamSpans(const CdcChunker& chunker, ByteView data) {
  std::vector<ChunkSpan> spans;
  spans.reserve(data.size() / chunker.params().avgSize + 1);
  size_t offset = 0;
  const auto stream = chunker.makeStream([&](ByteView chunk) {
    spans.push_back({offset, static_cast<uint32_t>(chunk.size())});
    offset += chunk.size();
  });
  for (size_t off = 0; off < data.size(); off += kPushBytes)
    stream->push(data.subspan(off, std::min(kPushBytes, data.size() - off)));
  stream->flush();
  return spans;
}

struct Timed {
  double bestSeconds = 0;
  std::vector<ChunkSpan> spans;
};

template <typename F>
void timeOnce(Timed& t, F&& run) {
  exp::Stopwatch watch;
  std::vector<ChunkSpan> spans = run();
  const double s = watch.elapsedSeconds();
  if (t.spans.empty() || s < t.bestSeconds) t.bestSeconds = s;
  t.spans = std::move(spans);
}

}  // namespace
}  // namespace freqdedup

int main(int argc, char** argv) {
  using namespace freqdedup;
  const long mb = std::atol(exp::stringFlag(argc, argv, "mb", "256").c_str());
  const long reps =
      std::atol(exp::stringFlag(argc, argv, "reps", "3").c_str());
  const std::string jsonPath =
      exp::stringFlag(argc, argv, "json", "BENCH_ingest.json");
  if (mb <= 0 || reps <= 0) {
    fprintf(stderr, "--mb and --reps must be >= 1\n");
    return 1;
  }

  ByteVec data(static_cast<size_t>(mb) << 20);
  Rng rng(2017);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());

  const CdcParams params;  // the defaults every client uses
  const CdcChunker chunker(params);
  Timed reference, split, stream;
  for (long r = 0; r < reps; ++r) {
    timeOnce(reference, [&] { return reference::cdcSplit(params, data); });
    timeOnce(split, [&] { return chunker.split(data); });
    timeOnce(stream, [&] { return streamSpans(chunker, data); });
  }
  if (split.spans != reference.spans || stream.spans != reference.spans) {
    fprintf(stderr, "ERROR: boundaries differ from the reference loop\n");
    return 1;
  }

  const auto mbps = [&](const Timed& t) {
    return exp::throughputMBps(data.size(), t.bestSeconds);
  };
  const double refMBps = mbps(reference);
  const double splitMBps = mbps(split);
  const double streamMBps = mbps(stream);
  exp::printTitle("chunk_throughput",
                  "Rabin CDC, " + std::to_string(mb) + " MiB random, " +
                      std::to_string(reference.spans.size()) +
                      " chunks, best of " + std::to_string(reps));
  exp::printRow({"path", "MB/s", "vs reference"});
  exp::printRow({"reference", exp::fmtDouble(refMBps, 1), "1.00"});
  exp::printRow({"split()", exp::fmtDouble(splitMBps, 1),
                 exp::fmtDouble(splitMBps / refMBps)});
  exp::printRow({"stream 1MiB", exp::fmtDouble(streamMBps, 1),
                 exp::fmtDouble(streamMBps / refMBps)});

  FILE* f = fopen(jsonPath.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  fprintf(f, "{\n");
  fprintf(f, "  \"input\": \"random\",\n");
  fprintf(f, "  \"input_bytes\": %zu,\n", data.size());
  fprintf(f, "  \"cdc_params\": {\"min\": %u, \"avg\": %u, \"max\": %u, "
             "\"window\": %u},\n",
          params.minSize, params.avgSize, params.maxSize, params.windowSize);
  fprintf(f, "  \"chunks\": %zu,\n", reference.spans.size());
  fprintf(f, "  \"repetitions\": %ld,\n", reps);
  fprintf(f, "  \"boundaries_identical\": true,\n");
  fprintf(f, "  \"before_reference_mb_s\": %.1f,\n", refMBps);
  fprintf(f, "  \"after_split_mb_s\": %.1f,\n", splitMBps);
  fprintf(f, "  \"after_stream_1mib_mb_s\": %.1f,\n", streamMBps);
  fprintf(f, "  \"split_ratio\": %.2f,\n", splitMBps / refMBps);
  fprintf(f, "  \"stream_ratio\": %.2f\n", streamMBps / refMBps);
  fprintf(f, "}\n");
  fclose(f);
  return 0;
}
