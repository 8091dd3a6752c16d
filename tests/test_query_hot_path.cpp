// Query hot-path regressions and properties:
//   * duplicate-visit contract — an ApproxVisitedSet collision may drop an
//     id that later re-enters the beam; the processed-id guard keeps
//     result.visited (the construction-time prune pool) duplicate-free by
//     construction instead of by implication from beam eviction policy,
//     on the plain, filtered and quantized entries alike,
//   * an always-true predicate reproduces the unfiltered traversal,
//   * per-thread SearchScratch pooling must never leak state between
//     searches (different beam widths, interleaved searches, explicit vs
//     pooled scratch),
//   * AnyIndex::batch_search must be element-wise identical to sequential
//     search calls for EVERY registered backend, under any worker count,
//   * DistanceCounter totals under the parallel fan-out must equal the sum
//     of the per-query serial counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "api/ann.h"
#include "core/beam_search.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "core/ground_truth.h"
#include "core/stats.h"
#include "quant/quantized_store.h"

namespace {

using ann::AnyIndex;
using ann::ApproxVisitedSet;
using ann::EuclideanSquared;
using ann::ExactVisitedSet;
using ann::Graph;
using ann::IndexSpec;
using ann::Neighbor;
using ann::PointId;
using ann::PointSet;
using ann::QueryParams;
using ann::SearchParams;

// Every point linked to its R exact nearest neighbors.
template <typename T>
Graph knn_graph(const PointSet<T>& points, std::uint32_t R) {
  auto gt = ann::compute_ground_truth<EuclideanSquared>(points, points, R + 1);
  Graph g(points.size(), R);
  for (std::size_t v = 0; v < points.size(); ++v) {
    std::vector<PointId> neigh;
    for (const auto& nb : gt.row(v)) {
      if (nb.id != v && neigh.size() < R) neigh.push_back(nb.id);
    }
    g.set_neighbors(static_cast<PointId>(v), neigh);
  }
  return g;
}

template <typename T>
bool no_duplicate_ids(const std::vector<T>& neighbors) {
  std::set<PointId> ids;
  for (const auto& nb : neighbors) {
    if (!ids.insert(nb.id).second) return false;
  }
  return true;
}

TEST(BeamSearchDuplicates, VisitedListIsDuplicateFreeUnderCollisions) {
  // A tiny beam gives a 64-slot approximate table; a well-connected graph
  // pushes hundreds of distinct ids through it, forcing collisions (dropped
  // ids that may re-enter the beam). The duplicate-free visited contract
  // must hold regardless — it is now enforced by the processed-id guard in
  // beam_search rather than implied by beam-eviction monotonicity.
  auto ps = ann::make_uniform<std::uint8_t>(2000, 8, 0, 255, 91);
  auto g = knn_graph(ps, 8);
  auto queries = ann::make_uniform<std::uint8_t>(40, 8, 0, 255, 92);
  auto store = ann::QuantizedStore<EuclideanSquared, std::uint8_t>::build(
      ps, {.kind = ann::QuantKind::kInt8});
  SearchParams prm{.beam_width = 3, .k = 3};
  std::vector<PointId> starts{0};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto approx = ann::beam_search<EuclideanSquared>(queries[q], ps, g, starts,
                                                     prm);
    EXPECT_TRUE(no_duplicate_ids(approx.visited)) << "query " << q;
    EXPECT_TRUE(no_duplicate_ids(approx.frontier)) << "query " << q;

    // The exact-set reference never drops ids, so its visited list is
    // duplicate-free by construction — the approximate path must now give
    // the same guarantee (not necessarily the same list: collisions may
    // still reorder exploration).
    auto exact = ann::beam_search<EuclideanSquared, std::uint8_t,
                                  ExactVisitedSet>(queries[q], ps, g, starts,
                                                   prm);
    EXPECT_TRUE(no_duplicate_ids(exact.visited)) << "query " << q;

    // The filtered and quantized entries share the same guard.
    auto filtered = ann::filtered_beam_search<EuclideanSquared>(
        queries[q], ps, g, starts, prm, [](PointId id) { return id % 2 == 0; });
    EXPECT_TRUE(no_duplicate_ids(filtered.visited)) << "query " << q;
    EXPECT_TRUE(no_duplicate_ids(filtered.frontier)) << "query " << q;
    ann::SearchScratch& scratch = ann::local_search_scratch();
    auto qv = store.bind(queries[q], scratch);
    auto quantized = ann::quantized_beam_search(qv, g, starts, prm, scratch);
    EXPECT_TRUE(no_duplicate_ids(quantized.visited)) << "query " << q;
    EXPECT_TRUE(no_duplicate_ids(quantized.frontier)) << "query " << q;
  }
}

TEST(BeamSearchDuplicates, AlwaysTruePredicateMatchesUnfilteredTraversal) {
  // With every point admissible and no widening, filtered search walks the
  // same beam: same visited list, same eval count, and the same top-k when
  // k <= beam_width (the matched list keeps max(L, k) entries by design, so
  // k > L is not comparable).
  auto ps = ann::make_uniform<std::uint8_t>(1500, 8, 0, 255, 97);
  auto g = knn_graph(ps, 8);
  auto queries = ann::make_uniform<std::uint8_t>(20, 8, 0, 255, 98);
  std::vector<PointId> starts{0};
  for (std::uint32_t beam : {4u, 16u, 48u}) {
    for (std::uint32_t k : {1u, 4u, 10u}) {
      if (k > beam) continue;
      for (float eps : {0.0f, 0.2f}) {
        SearchParams prm{.beam_width = beam, .k = k, .epsilon = eps};
        for (std::size_t q = 0; q < queries.size(); ++q) {
          ann::DistanceCounterScope plain_scope;
          auto plain = ann::beam_search<EuclideanSquared>(queries[q], ps, g,
                                                          starts, prm);
          std::uint64_t plain_evals = plain_scope.count();
          ann::DistanceCounterScope filtered_scope;
          auto filtered = ann::filtered_beam_search<EuclideanSquared>(
              queries[q], ps, g, starts, prm, [](PointId) { return true; });
          std::uint64_t filtered_evals = filtered_scope.count();
          EXPECT_EQ(filtered.visited, plain.visited) << "query " << q;
          EXPECT_EQ(filtered_evals, plain_evals) << "query " << q;
          ASSERT_GE(filtered.frontier.size(), std::min<std::size_t>(
                                                  k, plain.frontier.size()));
          for (std::size_t i = 0; i < k && i < plain.frontier.size(); ++i) {
            EXPECT_EQ(filtered.frontier[i], plain.frontier[i])
                << "beam " << beam << " k " << k << " query " << q;
          }
        }
      }
    }
  }
}

TEST(BeamSearchDuplicates, ApproxMatchesExactWhenTableIsCollisionFree) {
  // With a beam wide enough that the table dwarfs the reachable id set,
  // collisions cannot occur and the two visited-set implementations must
  // produce identical traversals (frontier and visited, ids and bits).
  auto ps = ann::make_uniform<std::uint8_t>(400, 8, 0, 255, 93);
  auto g = knn_graph(ps, 6);
  auto queries = ann::make_uniform<std::uint8_t>(10, 8, 0, 255, 94);
  SearchParams prm{.beam_width = 64, .k = 10};  // table 4096 >> 400 ids
  std::vector<PointId> starts{0};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto approx = ann::beam_search<EuclideanSquared>(queries[q], ps, g, starts,
                                                     prm);
    auto exact = ann::beam_search<EuclideanSquared, std::uint8_t,
                                  ExactVisitedSet>(queries[q], ps, g, starts,
                                                   prm);
    EXPECT_EQ(approx.frontier, exact.frontier) << "query " << q;
    EXPECT_EQ(approx.visited, exact.visited) << "query " << q;
  }
}

TEST(SearchScratch, PooledAndFreshScratchAgreeAcrossBeamWidths) {
  auto ps = ann::make_uniform<std::uint8_t>(800, 8, 0, 255, 95);
  auto g = knn_graph(ps, 8);
  auto queries = ann::make_uniform<std::uint8_t>(8, 8, 0, 255, 96);
  std::vector<PointId> starts{0};
  // Interleave widths so the pooled scratch is reused smaller/larger/smaller;
  // every call must match a fresh, never-reused scratch bit for bit.
  for (std::uint32_t beam : {50u, 4u, 120u, 4u, 50u}) {
    SearchParams prm{.beam_width = beam, .k = 4};
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto pooled =
          ann::beam_search<EuclideanSquared>(queries[q], ps, g, starts, prm);
      ann::SearchScratch fresh;
      auto standalone = ann::beam_search<EuclideanSquared>(
          queries[q], ps, g, starts, prm, fresh);
      EXPECT_EQ(pooled.frontier, standalone.frontier)
          << "beam " << beam << " query " << q;
      EXPECT_EQ(pooled.visited, standalone.visited)
          << "beam " << beam << " query " << q;
    }
  }
}

// --- unified-API properties over every registered backend --------------------

const std::vector<std::string>& all_algorithms() {
  static const std::vector<std::string> algos = {
      "diskann", "dynamic_diskann", "sharded_diskann",
      "hnsw",    "hcnng",           "pynndescent",
      "ivf_flat", "ivf_pq",         "lsh"};
  return algos;
}

IndexSpec spec_for(const std::string& algorithm) {
  IndexSpec spec{.algorithm = algorithm, .metric = "euclidean",
                 .dtype = "uint8"};
  if (algorithm == "ivf_pq") spec.params = ann::IVFPQParams{.rerank = 40};
  return spec;
}

TEST(BatchSearchParity, BatchMatchesSequentialForEveryBackend) {
  auto ds = ann::make_bigann_like(900, 25, 78);
  const QueryParams effort{.beam_width = 32, .k = 10};
  for (const auto& algo : all_algorithms()) {
    auto index = ann::make_index(spec_for(algo));
    index.build(ds.base);
    auto batch = index.batch_search(ds.queries, effort);
    ASSERT_EQ(batch.size(), ds.queries.size()) << algo;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      auto single = index.search(ds.queries[static_cast<PointId>(q)], effort);
      EXPECT_EQ(batch[q], single) << algo << " query " << q;
    }
  }
}

TEST(BatchSearchParity, ResultsIdenticalAcrossWorkerCounts) {
  auto ds = ann::make_bigann_like(900, 25, 79);
  const QueryParams effort{.beam_width = 32, .k = 10};
  for (const auto& algo : {std::string("diskann"), std::string("hnsw")}) {
    auto index = ann::make_index(spec_for(algo));
    index.build(ds.base);
    parlay::set_num_workers(1);
    auto serial = index.batch_search(ds.queries, effort);
    parlay::set_num_workers(0);
    auto parallel = index.batch_search(ds.queries, effort);
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      EXPECT_EQ(serial[q], parallel[q]) << algo << " query " << q;
    }
  }
}

TEST(DistanceAccounting, BatchTotalEqualsSerialSum) {
  // Per-query evaluation counts are deterministic (the traversal is), so the
  // parallel fan-out's total must equal the serial per-query sum exactly —
  // the DistanceCounterScope contract under batch_search.
  auto ds = ann::make_bigann_like(900, 20, 80);
  const QueryParams effort{.beam_width = 32, .k = 10};
  for (const auto& algo :
       {std::string("diskann"), std::string("hnsw"), std::string("ivf_flat")}) {
    auto index = ann::make_index(spec_for(algo));
    index.build(ds.base);

    std::uint64_t serial_sum = 0;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      ann::DistanceCounterScope scope;
      index.search(ds.queries[static_cast<PointId>(q)], effort);
      serial_sum += scope.count();
    }
    ASSERT_GT(serial_sum, 0u) << algo;

    ann::DistanceCounterScope scope;
    index.batch_search(ds.queries, effort);
    EXPECT_EQ(scope.count(), serial_sum) << algo;
  }
}

}  // namespace
