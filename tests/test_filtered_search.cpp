// Filtered-search suite: the LabelStore/FilterSpec data model, the
// nine-backend filtered conformance loop (native traversal filtering on the
// graph backends, post-filter fallback on the bucketed ones — both scored
// against brute-force filtered ground truth), the contract edges (empty
// match, contradictory match-all, k clamping under filters), LabelStore
// persistence through the container format (including corrupt-payload
// rejection), and 1-vs-N-worker byte identity on the native path.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "parlay/parallel.h"

#include "api/ann.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/recall.h"
#include "filter/post_filter.h"

namespace {

using ann::AnyIndex;
using ann::BoundFilter;
using ann::FilterSpec;
using ann::IndexSpec;
using ann::LabelId;
using ann::LabelStore;
using ann::Neighbor;
using ann::PointId;
using ann::QueryParams;

const QueryParams kEffort{.beam_width = 64, .k = 10};

struct BackendCase {
  std::string algorithm;
  bool native;        // traversal-level filtering vs post-filter fallback
  double min_recall;  // filtered 10@10 at selectivity 0.1, deterministic
};

// Floors mirror tests/test_any_index.cpp's unfiltered tiers: the graph
// backends keep high recall because the filter widens their traversal beam
// (auto_filter_beam_factor), ivf_flat's over-fetch escalates nprobe toward
// an exhaustive scan, ivf_pq pays compressed-domain error on a deeper
// shortlist, and lsh stays the weakest baseline by design.
const std::vector<BackendCase>& backend_cases() {
  static const std::vector<BackendCase> cases = {
      {"diskann", true, 0.8},         {"dynamic_diskann", true, 0.8},
      {"sharded_diskann", true, 0.7}, {"hnsw", true, 0.8},
      {"hcnng", true, 0.8},           {"pynndescent", true, 0.8},
      {"ivf_flat", false, 0.95},      {"ivf_pq", false, 0.45},
      {"lsh", false, 0.05},
  };
  return cases;
}

IndexSpec spec_for(const std::string& algorithm) {
  IndexSpec spec{.algorithm = algorithm, .metric = "euclidean",
                 .dtype = "uint8"};
  if (algorithm == "ivf_pq") {
    spec.params = ann::IVFPQParams{.rerank = 40};
  }
  return spec;
}

constexpr std::size_t kN = 1200;

ann::Dataset<std::uint8_t> small_dataset() {
  return ann::make_bigann_like(kN, 30, 77);
}

// Deterministic label schedule: selectivity tiers 1.0 ("all"), ~0.5
// ("parity_{0,1}"), ~0.1 ("decile_d"), ~0.01 ("percent_p"), plus a label
// that is interned but never assigned (the empty-match case).
LabelStore make_labels(std::size_t n) {
  LabelStore labels;
  labels.intern("unassigned");
  for (std::size_t i = 0; i < n; ++i) {
    labels.add_point_names({"all", "parity_" + std::to_string(i % 2),
                            "decile_" + std::to_string(i % 10),
                            "percent_" + std::to_string(i % 100)});
  }
  return labels;
}

AnyIndex build_labeled(const std::string& algorithm,
                       const ann::Dataset<std::uint8_t>& ds) {
  auto index = ann::make_index(spec_for(algorithm));
  index.build(ds.base);
  index.attach_labels(make_labels(ds.base.size()));
  return index;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- LabelStore / FilterSpec data model --------------------------------------

TEST(LabelStore, InternFindAndMembership) {
  LabelStore labels;
  LabelId red = labels.intern("red");
  LabelId blue = labels.intern("blue");
  EXPECT_EQ(labels.intern("red"), red);  // idempotent
  EXPECT_EQ(labels.num_labels(), 2u);
  EXPECT_EQ(labels.find("blue"), blue);
  EXPECT_EQ(labels.find("green"), ann::kInvalidLabel);
  EXPECT_EQ(labels.label_name(red), "red");

  labels.add_point(std::vector<LabelId>{red});
  labels.add_point(std::vector<LabelId>{blue, red, red});  // dedup + sort
  labels.add_point(std::vector<LabelId>{});
  ASSERT_EQ(labels.num_points(), 3u);
  EXPECT_TRUE(labels.has_label(0, red));
  EXPECT_FALSE(labels.has_label(0, blue));
  EXPECT_TRUE(labels.has_label(1, red));
  EXPECT_TRUE(labels.has_label(1, blue));
  EXPECT_EQ(labels.labels_of(1).size(), 2u);
  EXPECT_TRUE(labels.labels_of(2).empty());
  EXPECT_EQ(labels.label_count(red), 2u);
  EXPECT_EQ(labels.label_count(blue), 1u);
  EXPECT_EQ(labels.label_count(ann::kInvalidLabel), 0u);
}

TEST(LabelStore, UnknownIdRejected) {
  LabelStore labels;
  labels.intern("only");
  EXPECT_THROW(labels.add_point(std::vector<LabelId>{5}),
               std::invalid_argument);
}

TEST(FilterSpec, ModesAndSelectivityEstimates) {
  LabelStore labels = make_labels(kN);

  FilterSpec none;
  EXPECT_FALSE(none.active());

  auto any = FilterSpec::match_any(labels, {"parity_0", "parity_1"});
  auto all = FilterSpec::match_all(labels, {"parity_0", "decile_2"});
  EXPECT_TRUE(any.active());
  EXPECT_TRUE(any.uses_labels());

  BoundFilter bound_any(any, &labels);
  BoundFilter bound_all(all, &labels);
  // Union bound: parity_0 + parity_1 covers everything (capped at 1).
  EXPECT_DOUBLE_EQ(bound_any.estimated_selectivity(kN), 1.0);
  // Tightest single label: decile_2 is ~10%.
  EXPECT_NEAR(bound_all.estimated_selectivity(kN), 0.1, 0.01);
  // match_all semantics: point 2 is parity_0 AND decile_2; point 12 is
  // parity_0 but decile_2 as well (12 % 10 == 2); point 4 is not decile_2.
  EXPECT_TRUE(bound_all.matches(2));
  EXPECT_TRUE(bound_all.matches(12));
  EXPECT_FALSE(bound_all.matches(4));

  // Unknown names map to kInvalidLabel: inert under match-any,
  // unsatisfiable under match-all.
  auto any_unknown = FilterSpec::match_any(labels, {"no_such", "parity_0"});
  auto all_unknown = FilterSpec::match_all(labels, {"no_such", "parity_0"});
  BoundFilter bound_any_unknown(any_unknown, &labels);
  BoundFilter bound_all_unknown(all_unknown, &labels);
  EXPECT_TRUE(bound_any_unknown.matches(0));
  EXPECT_FALSE(bound_all_unknown.matches(0));

  // The escape hatch composes with the label clause.
  auto compound = FilterSpec::match_any(labels, {"parity_0"})
                      .and_where([](PointId id) { return id < 10; });
  BoundFilter bound_compound(compound, &labels);
  EXPECT_TRUE(bound_compound.matches(4));
  EXPECT_FALSE(bound_compound.matches(5));    // odd
  EXPECT_FALSE(bound_compound.matches(100));  // predicate fails

  // A label clause with no store is a bind-time error.
  EXPECT_THROW(BoundFilter(any, nullptr), std::invalid_argument);

  // Widening factor: 1/sqrt(sel), clamped to [1, 10].
  EXPECT_FLOAT_EQ(ann::auto_filter_beam_factor(1.0), 1.0f);
  EXPECT_NEAR(ann::auto_filter_beam_factor(0.1), 3.1623, 1e-3);
  EXPECT_FLOAT_EQ(ann::auto_filter_beam_factor(0.0), 10.0f);

  // Over-fetch sizing: 2k/sel clamped to [k, n].
  EXPECT_EQ(ann::post_filter_fetch_k(10, kN, 1.0), 20u);
  EXPECT_EQ(ann::post_filter_fetch_k(10, kN, 0.1), 200u);
  EXPECT_EQ(ann::post_filter_fetch_k(10, kN, 0.0001), kN);
}

// --- nine-backend conformance ------------------------------------------------

// Every backend serves filtered_search; results contain only matching
// points and score against brute-force filtered ground truth.
TEST(FilteredConformance, AllBackendsRecallAtModerateSelectivity) {
  auto ds = small_dataset();
  LabelStore labels = make_labels(kN);
  auto gt = ann::compute_filtered_ground_truth<ann::EuclideanSquared>(
      ds.base, ds.queries, 10,
      [&](PointId id) { return id % 10 == 3; });  // == decile_3, sel 0.1

  for (const auto& c : backend_cases()) {
    auto index = build_labeled(c.algorithm, ds);
    EXPECT_EQ(index.supports_native_filtering(), c.native) << c.algorithm;
    auto spec = FilterSpec::match_any(index.labels(), {"decile_3"});
    auto results = index.filtered_batch_search(ds.queries, spec, kEffort);
    for (std::size_t q = 0; q < results.size(); ++q) {
      EXPECT_LE(results[q].size(), 10u) << c.algorithm;
      for (const auto& nb : results[q]) {
        EXPECT_EQ(nb.id % 10, 3u) << c.algorithm << " query " << q;
      }
    }
    double recall = ann::average_filtered_recall(results, gt, 10);
    EXPECT_GE(recall, c.min_recall) << c.algorithm;
  }
}

// Selectivity sweep on the native path: the contract (only matching points,
// never more than k) holds from 0.01 through 0.9; recall floors are only
// asserted where the ISSUE's gate applies (>= 0.1).
TEST(FilteredConformance, SelectivitySweepHoldsContract) {
  auto ds = small_dataset();
  struct Tier {
    std::string label;
    std::uint32_t modulus;  // id % modulus == target <=> labeled
    std::uint32_t target;
    double min_recall;  // 0 = contract-only (tiny selectivity)
  };
  const std::vector<Tier> tiers = {
      {"percent_7", 100, 7, 0.0},   // sel 0.01
      {"decile_3", 10, 3, 0.8},     // sel 0.1
      {"parity_1", 2, 1, 0.8},      // sel 0.5
      {"all", 1, 0, 0.8},           // sel 1.0 (degenerate: plain search)
  };
  for (const std::string algorithm : {"diskann", "hnsw"}) {
    auto index = build_labeled(algorithm, ds);
    for (const auto& tier : tiers) {
      auto gt = ann::compute_filtered_ground_truth<ann::EuclideanSquared>(
          ds.base, ds.queries, 10, [&](PointId id) {
            return id % tier.modulus == tier.target;
          });
      auto spec = FilterSpec::match_any(index.labels(), {tier.label});
      auto results = index.filtered_batch_search(ds.queries, spec, kEffort);
      for (std::size_t q = 0; q < results.size(); ++q) {
        for (const auto& nb : results[q]) {
          EXPECT_EQ(nb.id % tier.modulus, tier.target)
              << algorithm << " " << tier.label;
        }
      }
      if (tier.min_recall > 0) {
        double recall = ann::average_filtered_recall(results, gt, 10);
        EXPECT_GE(recall, tier.min_recall) << algorithm << " " << tier.label;
      }
    }
  }
}

// An interned-but-unassigned label and a contradictory match-all both admit
// nothing: every backend must return empty, never garbage.
TEST(FilteredConformance, EmptyMatchReturnsEmpty) {
  auto ds = small_dataset();
  for (const auto& c : backend_cases()) {
    auto index = build_labeled(c.algorithm, ds);
    auto unassigned = FilterSpec::match_any(index.labels(), {"unassigned"});
    auto contradiction =
        FilterSpec::match_all(index.labels(), {"parity_0", "parity_1"});
    for (const auto& spec : {unassigned, contradiction}) {
      auto hits = index.filtered_search(ds.queries[0], spec, kEffort);
      EXPECT_TRUE(hits.empty()) << c.algorithm;
    }
  }
}

// Fewer matches than k: the result is exactly the full (tiny) match set.
TEST(FilteredConformance, FewerMatchesThanKReturnsAllOfThem) {
  auto ds = small_dataset();
  for (const std::string algorithm : {"diskann", "ivf_flat"}) {
    auto index = build_labeled(algorithm, ds);
    // percent_7 at n=1200 admits exactly 12 points; ask for 50.
    auto spec = FilterSpec::match_any(index.labels(), {"percent_7"});
    QueryParams wide = kEffort;
    wide.k = 50;
    wide.beam_width = 256;
    auto hits = index.filtered_search(ds.queries[0], spec, wide);
    EXPECT_LE(hits.size(), 12u) << algorithm;
    for (const auto& nb : hits) EXPECT_EQ(nb.id % 100, 7u) << algorithm;
    // The exhaustive backends must find every match.
    if (algorithm == "ivf_flat") {
      EXPECT_EQ(hits.size(), 12u);
    }
  }
}

// The std::function escape hatch works without any LabelStore.
TEST(FilteredConformance, PredicateOnlyFilterNeedsNoStore) {
  auto ds = small_dataset();
  auto index = ann::make_index(spec_for("diskann"));
  index.build(ds.base);
  ASSERT_FALSE(index.has_labels());
  auto spec = FilterSpec::where([](PointId id) { return id % 3 == 0; });
  auto hits = index.filtered_search(ds.queries[0], spec, kEffort);
  EXPECT_FALSE(hits.empty());
  for (const auto& nb : hits) EXPECT_EQ(nb.id % 3, 0u);
  // But a label-referencing spec without a store must throw.
  auto labeled = FilterSpec::match_any({LabelId{0}});
  EXPECT_THROW(index.filtered_search(ds.queries[0], labeled, kEffort),
               std::invalid_argument);
}

// A NaN or +inf filter_beam_factor has no traversal width: every filtered
// entry point rejects it before dispatch (the dynamic backend's tombstone
// widening included), and the core search range-checks the width it
// derives. -inf is <= 0, so it still means AUTO.
TEST(FilteredConformance, NonFiniteBeamFactorRejected) {
  auto ds = small_dataset();
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::string algorithm : {"diskann", "dynamic_diskann"}) {
    SCOPED_TRACE(algorithm);
    auto index = build_labeled(algorithm, ds);
    auto spec = FilterSpec::match_any(index.labels(), {"decile_3"});
    std::vector<FilterSpec> filters(ds.queries.size(), spec);
    for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf}) {
      QueryParams p = kEffort;
      p.filter_beam_factor = bad;
      EXPECT_THROW(index.filtered_search(ds.queries[0], spec, p),
                   std::invalid_argument);
      EXPECT_THROW(index.filtered_batch_search(ds.queries, spec, p),
                   std::invalid_argument);
      EXPECT_THROW(index.filtered_batch_search(
                       ds.queries, std::span<const FilterSpec>(filters), p),
                   std::invalid_argument);
    }
    QueryParams neg = kEffort;
    neg.filter_beam_factor = -inf;
    EXPECT_EQ(index.filtered_search(ds.queries[0], spec, neg),
              index.filtered_search(ds.queries[0], spec, kEffort));
  }

  ann::Graph g(ds.base.size(), 4);
  const PointId start = 0;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf}) {
    QueryParams p = kEffort;
    p.filter_beam_factor = bad;
    EXPECT_THROW(ann::filtered_beam_search<ann::EuclideanSquared>(
                     ds.queries[0], ds.base, g,
                     std::span<const PointId>(&start, 1), p,
                     [](PointId) { return true; }),
                 std::invalid_argument);
  }
}

// 1-vs-N-worker byte identity on the native path: filtered_batch_search
// under one worker equals the default worker count, element-wise.
TEST(FilteredDeterminism, WorkerCountInvarianceOnNativePath) {
  auto ds = small_dataset();
  for (const std::string algorithm : {"diskann", "hnsw", "dynamic_diskann"}) {
    auto index = build_labeled(algorithm, ds);
    auto spec = FilterSpec::match_any(index.labels(), {"decile_3"});
    parlay::set_num_workers(1);
    auto serial = index.filtered_batch_search(ds.queries, spec, kEffort);
    parlay::set_num_workers(0);
    auto parallel = index.filtered_batch_search(ds.queries, spec, kEffort);
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      EXPECT_EQ(serial[q], parallel[q]) << algorithm << " query " << q;
    }
  }
}

// Per-query FilterSpec overload: element-wise equal to the single-spec
// calls it multiplexes.
TEST(FilteredConformance, PerQueryFilterSpanMatchesSingleSpecCalls) {
  auto ds = small_dataset();
  auto index = build_labeled("diskann", ds);
  auto even = FilterSpec::match_any(index.labels(), {"parity_0"});
  auto odd = FilterSpec::match_any(index.labels(), {"parity_1"});
  std::vector<FilterSpec> filters;
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    filters.push_back(q % 2 == 0 ? even : odd);
  }
  auto mixed = index.filtered_batch_search(
      ds.queries, std::span<const FilterSpec>(filters), kEffort);
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    auto expect = index.filtered_search(
        ds.queries[static_cast<PointId>(q)], filters[q], kEffort);
    EXPECT_EQ(mixed[q], expect) << "query " << q;
  }
  // Size mismatch is rejected.
  std::vector<FilterSpec> short_filters(3);
  EXPECT_THROW(index.filtered_batch_search(
                   ds.queries, std::span<const FilterSpec>(short_filters),
                   kEffort),
               std::invalid_argument);
}

// Tombstones compose with filters on the mutable backend: erased points
// vanish from filtered results even when they match the label clause.
TEST(FilteredConformance, ErasedPointsNeverSurfaceThroughFilters) {
  auto ds = small_dataset();
  auto index = build_labeled("dynamic_diskann", ds);
  auto spec = FilterSpec::match_any(index.labels(), {"decile_3"});
  auto before = index.filtered_search(ds.queries[0], spec, kEffort);
  ASSERT_FALSE(before.empty());
  std::vector<PointId> doomed{before.front().id};
  index.erase(doomed);
  auto after = index.filtered_search(ds.queries[0], spec, kEffort);
  for (const auto& nb : after) EXPECT_NE(nb.id, doomed[0]);
}

// --- persistence -------------------------------------------------------------

// The LabelStore round-trips through AnyIndex::save/load for both a native
// and a post-filter backend, and filtered results are bit-identical across
// the round trip.
TEST(FilteredPersistence, LabelStoreSurvivesSaveLoad) {
  auto ds = small_dataset();
  for (const std::string algorithm : {"diskann", "ivf_flat"}) {
    auto index = build_labeled(algorithm, ds);
    auto spec = FilterSpec::match_any(index.labels(), {"decile_3"});
    auto before = index.filtered_batch_search(ds.queries, spec, kEffort);

    auto path = temp_path("filtered_" + algorithm + ".pann");
    index.save(path);
    auto loaded = AnyIndex::load(path);
    std::remove(path.c_str());

    ASSERT_TRUE(loaded.has_labels()) << algorithm;
    EXPECT_TRUE(loaded.labels() == index.labels()) << algorithm;
    // Rebind the spec against the loaded store (ids are identical by the
    // determinism of interning order, but go through the public API).
    auto spec2 = FilterSpec::match_any(loaded.labels(), {"decile_3"});
    auto after = loaded.filtered_batch_search(ds.queries, spec2, kEffort);
    EXPECT_EQ(before, after) << algorithm;
  }
}

// An unlabeled index stays unlabeled across the round trip (its file has no
// trailing label payload).
TEST(FilteredPersistence, UnlabeledIndexStaysUnlabeled) {
  auto ds = small_dataset();
  auto index = ann::make_index(spec_for("diskann"));
  index.build(ds.base);
  auto path = temp_path("unlabeled.pann");
  index.save(path);
  auto loaded = AnyIndex::load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.has_labels());
}

// A corrupted label payload must be rejected with a clean error, whether
// the magic is wrong (trailing garbage) or the payload lies about its
// sizes (truncated stream).
TEST(FilteredPersistence, CorruptLabelPayloadRejected) {
  auto ds = small_dataset();
  auto index = build_labeled("diskann", ds);
  auto path = temp_path("corrupt_labels.pann");
  index.save(path);

  // Flip one byte inside the label payload's magic. The payload trails the
  // backend payload, so its magic is the first 4 bytes after the backend
  // bytes; easiest reliable way to find it: an unlabeled save of the same
  // index is exactly the prefix.
  auto unlabeled = ann::make_index(spec_for("diskann"));
  unlabeled.build(ds.base);
  auto prefix_path = temp_path("corrupt_labels_prefix.pann");
  unlabeled.save(prefix_path);
  auto prefix_size = std::filesystem::file_size(prefix_path);
  std::remove(prefix_path.c_str());

  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(prefix_size), SEEK_SET), 0);
    unsigned char junk = 0xFF;
    ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_THROW(AnyIndex::load(path), std::runtime_error);

  // Truncated mid-payload: resave, then chop the last bytes off.
  index.save(path);
  auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 16);
  EXPECT_THROW(AnyIndex::load(path), std::runtime_error);
  std::remove(path.c_str());
}

// Attaching a store of the wrong cardinality is rejected.
TEST(FilteredPersistence, MismatchedStoreRejected) {
  auto ds = small_dataset();
  auto index = ann::make_index(spec_for("diskann"));
  index.build(ds.base);
  EXPECT_THROW(index.attach_labels(make_labels(kN - 1)),
               std::invalid_argument);
}

}  // namespace
