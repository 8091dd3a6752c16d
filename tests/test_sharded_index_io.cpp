// Sharded (divide-and-merge) builds. Whole-index persistence is covered by
// the container round-trips in test_any_index and the bad-magic/truncation
// cases in test_reliability.
#include <gtest/gtest.h>

#include "algorithms/diskann.h"
#include "algorithms/sharded_build.h"
#include "core/dataset.h"
#include "test_helpers.h"

namespace {

using ann::DiskANNParams;
using ann::EuclideanSquared;
using ann::ShardedBuildParams;

TEST(ShardedBuild, GraphInvariants) {
  auto ds = ann::make_bigann_like(1200, 1, 3);
  ShardedBuildParams prm;
  prm.num_shards = 4;
  prm.diskann = {.degree_bound = 24, .beam_width = 48};
  auto ix = ann::build_sharded_diskann<EuclideanSquared>(ds.base, prm);
  ann::testutil::check_graph_invariants(ix.graph, 1200, 2 * 24);
}

TEST(ShardedBuild, QualityNearMonolithic) {
  auto ds = ann::make_bigann_like(2000, 40, 5);
  DiskANNParams dprm{.degree_bound = 32, .beam_width = 64};
  auto mono = ann::build_diskann<EuclideanSquared>(ds.base, dprm);
  ShardedBuildParams sprm;
  sprm.num_shards = 4;
  sprm.overlap = 2;
  sprm.diskann = dprm;
  auto sharded = ann::build_sharded_diskann<EuclideanSquared>(ds.base, sprm);
  double r_mono = ann::testutil::measure_recall<EuclideanSquared>(
      mono, ds.base, ds.queries, 64);
  double r_sharded = ann::testutil::measure_recall<EuclideanSquared>(
      sharded, ds.base, ds.queries, 64);
  EXPECT_GT(r_sharded, r_mono - 0.1)
      << "sharded " << r_sharded << " vs monolithic " << r_mono;
  EXPECT_GT(r_sharded, 0.85);
}

TEST(ShardedBuild, OverlapStitchesShards) {
  // overlap=1 gives disjoint shard graphs (reachability from one medoid is
  // limited); overlap=2 stitches them.
  auto ds = ann::make_bigann_like(1200, 1, 7);
  ShardedBuildParams prm;
  prm.num_shards = 4;
  prm.diskann = {.degree_bound = 24, .beam_width = 48};
  prm.overlap = 2;
  auto stitched = ann::build_sharded_diskann<EuclideanSquared>(ds.base, prm);
  double frac = ann::testutil::reachable_fraction(stitched.graph,
                                                  stitched.start);
  EXPECT_GT(frac, 0.95);
}

TEST(ShardedBuild, DeterministicAcrossWorkerCounts) {
  auto ds = ann::make_spacev_like(800, 1, 9);
  ShardedBuildParams prm;
  prm.num_shards = 3;
  prm.diskann = {.degree_bound = 16, .beam_width = 32};
  parlay::set_num_workers(1);
  auto a = ann::build_sharded_diskann<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(6);
  auto b = ann::build_sharded_diskann<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(0);
  EXPECT_TRUE(a.graph == b.graph);
}

}  // namespace
