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

#include <cmath>
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

// Digest of every query's (frontier, visited, eval count) under `search`,
// started from `starts` (the graph's start point when empty).
template <typename Search>
std::uint32_t digest(const Search& search, std::vector<PointId> starts) {
  const Fixture& f = fixture();
  if (starts.empty()) starts.push_back(f.index.start);
  std::uint32_t crc = 0;
  for (std::size_t q = 0; q < f.ds.queries.size(); ++q) {
    const std::uint8_t* query = f.ds.queries[static_cast<PointId>(q)];
    ann::DistanceCounterScope scope;
    SearchResult res = search(query, std::span<const PointId>(starts));
    std::uint64_t evals = scope.count();
    crc = extend(crc, res.frontier);
    crc = extend(crc, res.visited);
    crc = ann::crc32c::extend(crc, &evals, sizeof(evals));
  }
  return crc;
}

struct Digests {
  std::uint32_t beam, filtered, quantized;
};

// Digests of plain, filtered (admitting id % `modulus` == 3) and
// int8-quantized search under one parameter set.
Digests digests(const SearchParams& params, std::uint32_t modulus,
                const std::vector<PointId>& starts = {}) {
  const Fixture& f = fixture();
  Digests d;
  d.beam = digest(
      [&](const std::uint8_t* q, auto s) {
        return ann::beam_search<EuclideanSquared>(q, f.ds.base, f.index.graph,
                                                  s, params);
      },
      starts);
  d.filtered = digest(
      [&](const std::uint8_t* q, auto s) {
        return ann::filtered_beam_search<EuclideanSquared>(
            q, f.ds.base, f.index.graph, s, params,
            [modulus](PointId id) { return id % modulus == 3; });
      },
      starts);
  d.quantized = digest(
      [&](const std::uint8_t* q, auto s) {
        ann::SearchScratch& scratch = ann::local_search_scratch();
        auto qv = f.store.bind(q, scratch);
        ann::DistanceCounter::reset();  // digest the traversal, not bind()
        return ann::quantized_beam_search(qv, f.index.graph, s, params,
                                          scratch);
      },
      starts);
  return d;
}

void expect_digests(const Digests& got, const Digests& want) {
  EXPECT_EQ(got.beam, want.beam) << std::hex << "beam 0x" << got.beam;
  EXPECT_EQ(got.filtered, want.filtered)
      << std::hex << "filtered 0x" << got.filtered;
  EXPECT_EQ(got.quantized, want.quantized)
      << std::hex << "quantized 0x" << got.quantized;
}

struct Case {
  std::uint32_t beam_width;
  float epsilon;
  Digests want;
};

const Case kCases[] = {
    {10, 0.0f, {0xd1b27f3du, 0xeed16773u, 0xd1b27f3du}},
    {10, 0.1f, {0xc989eb52u, 0x1c613af4u, 0xc989eb52u}},
    {80, 0.0f, {0xdeb3db4cu, 0xfa379630u, 0xdeb3db4cu}},
    {80, 0.1f, {0xe4a5fd77u, 0xba760c18u, 0xe4a5fd77u}},
};

TEST(TraversalGolden, DigestsMatchRecordedLiterals) {
  for (const Case& c : kCases) {
    SearchParams params{.beam_width = c.beam_width, .k = 5,
                        .epsilon = c.epsilon, .filter_beam_factor = 2.5f};
    SCOPED_TRACE(testing::Message() << "L=" << c.beam_width
                                    << " eps=" << c.epsilon);
    expect_digests(digests(params, 7), c.want);
  }
}

// The edges a change to the beam's bookkeeping can break: several start
// points (duplicates included), a visit limit that stops the walk early,
// k larger than the beam, and a filtered search at selectivity 0.1 whose
// auto factor 1/sqrt(0.1) widens an L = 80 traversal beam to 253.
TEST(TraversalGolden, EdgeCasesMatchRecordedLiterals) {
  const PointId start = fixture().index.start;
  const float sel_factor = static_cast<float>(1.0 / std::sqrt(0.1));
  ASSERT_EQ(std::ceil(80.0 * sel_factor), 253.0);

  struct EdgeCase {
    const char* name;
    SearchParams params;
    std::uint32_t modulus;
    std::vector<PointId> starts;
    Digests want;
  };
  const EdgeCase cases[] = {
      {"multi_start",
       {.beam_width = 10, .k = 5, .filter_beam_factor = 2.5f},
       7,
       {start, 17, 1234, start, 17, 999},
       {0x016499adu, 0xfac5c5d7u, 0x016499adu}},
      {"visit_limit_7",
       {.beam_width = 80, .k = 5, .visit_limit = 7,
        .filter_beam_factor = 2.5f},
       7,
       {},
       {0x092dcea5u, 0xa98c5cd0u, 0x092dcea5u}},
      {"k_twice_L",
       {.beam_width = 10, .k = 20, .epsilon = 0.1f,
        .filter_beam_factor = 2.5f},
       7,
       {},
       {0xd1b27f3du, 0xe44e5ae1u, 0xd1b27f3du}},
      {"filtered_sel_0.1",
       {.beam_width = 80, .k = 10, .filter_beam_factor = sel_factor},
       10,
       {},
       {0xdeb3db4cu, 0x6c167a85u, 0xdeb3db4cu}},
  };
  for (const EdgeCase& c : cases) {
    SCOPED_TRACE(c.name);
    expect_digests(digests(c.params, c.modulus, c.starts), c.want);
  }
}

}  // namespace
