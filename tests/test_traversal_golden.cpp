// Golden digests of the greedy traversal. Every search entry point that
// walks a graph (plain, filtered, int8-quantized) is pinned to a CRC32C over
// its frontier, its visited list and its distance-evaluation count, on a
// fixed-seed uint8 diskann graph. A change to the traversal loop that alters
// any candidate, any tie-break or any eval shows up here as a digest diff.
//
// Only integer distance paths are digested (uint8 L2 and int8 codes), so the
// literals hold under every ANN_SIMD tier. PQ is left out: its codebooks are
// float k-means and vary by tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/diskann.h"
#include "core/beam_search.h"
#include "core/dataset.h"
#include "core/io.h"
#include "core/stats.h"
#include "quant/quantized_store.h"

namespace {

using ann::EuclideanSquared;
using ann::Neighbor;
using ann::PointId;
using ann::SearchParams;
using ann::SearchResult;

struct Fixture {
  ann::Dataset<std::uint8_t> ds = ann::make_bigann_like(2000, 24, 4242);
  ann::GraphIndex<EuclideanSquared, std::uint8_t> index =
      ann::build_diskann<EuclideanSquared>(
          ds.base, ann::DiskANNParams{.degree_bound = 24, .beam_width = 48,
                                      .alpha = 1.2f});
  ann::QuantizedStore<EuclideanSquared, std::uint8_t> store =
      ann::QuantizedStore<EuclideanSquared, std::uint8_t>::build(
          ds.base, {.kind = ann::QuantKind::kInt8});
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::uint32_t extend(std::uint32_t crc, const std::vector<Neighbor>& list) {
  for (const Neighbor& nb : list) {
    crc = ann::crc32c::extend(crc, &nb.id, sizeof(nb.id));
    crc = ann::crc32c::extend(crc, &nb.dist, sizeof(nb.dist));
  }
  std::uint64_t size = list.size();
  return ann::crc32c::extend(crc, &size, sizeof(size));
}

// Digest of every query's (frontier, visited, eval count) under `search`.
template <typename Search>
std::uint32_t digest(const Search& search) {
  const Fixture& f = fixture();
  std::uint32_t crc = 0;
  for (std::size_t q = 0; q < f.ds.queries.size(); ++q) {
    const std::uint8_t* query = f.ds.queries[static_cast<PointId>(q)];
    std::vector<PointId> starts{f.index.start};
    ann::DistanceCounterScope scope;
    SearchResult res = search(query, std::span<const PointId>(starts));
    std::uint64_t evals = scope.count();
    crc = extend(crc, res.frontier);
    crc = extend(crc, res.visited);
    crc = ann::crc32c::extend(crc, &evals, sizeof(evals));
  }
  return crc;
}

struct Case {
  std::uint32_t beam_width;
  float epsilon;
  std::uint32_t beam, filtered, quantized;  // expected digests
};

const Case kCases[] = {
    {10, 0.0f, 0xd1b27f3du, 0xeed16773u, 0xd1b27f3du},
    {10, 0.1f, 0xc989eb52u, 0x1c613af4u, 0xc989eb52u},
    {80, 0.0f, 0xdeb3db4cu, 0xfa379630u, 0xdeb3db4cu},
    {80, 0.1f, 0xe4a5fd77u, 0xba760c18u, 0xe4a5fd77u},
};

TEST(TraversalGolden, DigestsMatchRecordedLiterals) {
  const Fixture& f = fixture();
  for (const Case& c : kCases) {
    SearchParams params{.beam_width = c.beam_width, .k = 5,
                        .epsilon = c.epsilon, .filter_beam_factor = 2.5f};
    std::uint32_t beam = digest([&](const std::uint8_t* q, auto starts) {
      return ann::beam_search<EuclideanSquared>(q, f.ds.base, f.index.graph,
                                                starts, params);
    });
    std::uint32_t filtered = digest([&](const std::uint8_t* q, auto starts) {
      return ann::filtered_beam_search<EuclideanSquared>(
          q, f.ds.base, f.index.graph, starts, params,
          [](PointId id) { return id % 7 == 3; });
    });
    std::uint32_t quantized = digest([&](const std::uint8_t* q, auto starts) {
      ann::SearchScratch& scratch = ann::local_search_scratch();
      auto qv = f.store.bind(q, scratch);
      ann::DistanceCounter::reset();  // digest the traversal, not bind()
      return ann::quantized_beam_search(qv, f.index.graph, starts, params,
                                        scratch);
    });
    SCOPED_TRACE(testing::Message() << "L=" << c.beam_width
                                    << " eps=" << c.epsilon);
    EXPECT_EQ(beam, c.beam) << std::hex << "beam 0x" << beam;
    EXPECT_EQ(filtered, c.filtered) << std::hex << "filtered 0x" << filtered;
    EXPECT_EQ(quantized, c.quantized) << std::hex << "quantized 0x"
                                      << quantized;
  }
}

}  // namespace
