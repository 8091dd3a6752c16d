// Greedy beam search (Algorithm 1 of the paper) with the two search
// optimizations of §4.5:
//   * an approximate, one-sided-error "seen" hash table sized beam^2,
//   * (1+eps) candidate pruning (Iwasaki & Miyazaki): candidates farther
//     than (1+eps) times the current k-th nearest distance are not queued.
//
// One loop, internal::traverse, serves every graph search in the library.
// It is templated on two things:
//   * a DISTANCE VIEW with eval(id) (distance of the prepared query to point
//     id, uncounted) and prefetch(id): RowView over full-precision rows,
//     QuantizedQuery over int8/PQ codes (quant/quantized_store.h), or the
//     PQ-table view of ivf/pq_graph_search.h;
//   * an ADMISSION POLICY: AdmitAll makes the traversal beam the result
//     frontier; AdmitMatching feeds predicate-passing points into a separate
//     matched list before the traversal's cuts (filtered search).
// beam_search, filtered_beam_search, quantized_beam_search, search_knn,
// pq_search_knn and the HNSW descent are thin wrappers over it.
//
// The search is deterministic: the beam is kept sorted by (distance, id), so
// ties never depend on traversal order, views are pure functions of (prepared
// query, id), and all inputs (graph, starts) are deterministic upstream.
//
// Hot-path structure:
//   * Evaluations are counted locally and reported in one
//     DistanceCounter::bump(n) per search.
//   * Scratch state (the seen table, the beam, processed flags, the
//     neighbor gather buffer) lives in a per-thread SearchScratch pool, so
//     a steady-state query allocates nothing but its own result vectors.
//     The pooled ApproxVisitedSet is epoch-cleared: resetting it between
//     queries is O(1), not a table memset.
//   * Neighbor expansion is two-phase: gather the unprocessed neighbor ids
//     (issuing view prefetches), then evaluate distances — by the time the
//     kernel runs, the rows are on their way into cache.
//   * The beam is two flat arrays (sorted entries, processed flags) sized
//     once to Lt + 1 and addressed by raw pointer with an explicit size.
//     A cursor keeps the invariant "every entry before it is processed":
//     an insert before it moves it back to the inserted slot, and each hop
//     advances it past the entry it claims, so no hop rescans the beam for
//     the first unprocessed entry.
//   * An insert is one flat step: a branch-free binary search that probes
//     in libstdc++ std::lower_bound's order (same slot even for NaN
//     distances), the dedupe/capacity/eviction rules, and one memmove per
//     array.
//   * Right after claiming a node, the loop prefetches the adjacency row
//     of the next unprocessed entry (Graph::prefetch_neighbors), so the
//     next hop's edge read overlaps this hop's distance evaluations.
//   * A node is processed at most once, BY CONSTRUCTION: an exact
//     processed-id set guards the expansion, so result.visited (the prune
//     candidate pool during construction) never holds duplicates even when
//     the approximate seen-table drops ids on collisions.
//
// The same routine serves queries and index construction (the insert path of
// the incremental algorithms uses the visited list as the prune candidate
// pool), exactly as in ParlayANN where DiskANN/HCNNG/PyNNDescent share one
// search implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "distance.h"
#include "graph.h"
#include "points.h"
#include "visited_set.h"

namespace ann {

struct Neighbor {
  PointId id = kInvalidPoint;
  float dist = std::numeric_limits<float>::infinity();

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;  // total order: deterministic tie-breaking
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.dist == b.dist;
  }
};

struct SearchParams {
  std::uint32_t beam_width = 10;  // L: max candidates retained
  std::uint32_t k = 10;           // neighbors requested
  float epsilon = 0.0f;           // (1+eps) pruning; paper uses eps <= 0.25
  std::size_t visit_limit = std::numeric_limits<std::size_t>::max();
  // Filtered search only: traversal-beam widening multiplier. The traversal
  // beam runs at ceil(beam_width * filter_beam_factor) while the result list
  // stays at beam_width, so low-selectivity filters keep enough admissible
  // candidates in flight. <= 0 means AUTO: AnyIndex resolves it from the
  // filter's estimated selectivity (ann::auto_filter_beam_factor) before
  // dispatch. Ignored by unfiltered search.
  float filter_beam_factor = 0.0f;
  // Quantized search only: number of top compressed-domain candidates to
  // re-score from full-precision rows after the traversal (the DiskANN
  // rerank knob). 0 disables rerank — results carry ADC distances.
  // Clamped up to k and down to the frontier size at the rerank site.
  // Ignored by full-precision search.
  std::uint32_t rerank_count = 0;
};

struct SearchResult {
  // Best candidates seen, sorted ascending by (dist, id); size <= beam_width.
  std::vector<Neighbor> frontier;
  // Processed ("visited") points in processing order, duplicate-free. This
  // is the candidate pool V handed to prune() during index construction.
  std::vector<Neighbor> visited;

  std::vector<PointId> top_k_ids(std::size_t k) const {
    std::vector<PointId> ids;
    ids.reserve(std::min(k, frontier.size()));
    for (std::size_t i = 0; i < frontier.size() && i < k; ++i) {
      ids.push_back(frontier[i].id);
    }
    return ids;
  }
};

// Reusable per-thread search state. Everything a beam search (or the flood
// phase of a range search) needs beyond its result vectors; pooled via
// local_search_scratch() so steady-state queries do zero scratch
// allocations. AnyIndex::batch_search's parallel fan-out picks up one
// scratch per worker thread automatically.
struct SearchScratch {
  ApproxVisitedSet seen{0};
  ExactIdSet processed_ids{0};
  std::vector<Neighbor> beam;
  std::vector<unsigned char> processed;  // parallel to beam
  std::vector<PointId> gather;           // unseen neighbors of one node
  std::vector<Neighbor> flood;           // range-search flood queue
  std::vector<Neighbor> matched;         // filtered-search result list
  // Quantized-search buffers (src/quant/): the per-query ADC lookup table,
  // a float image of the query for table filling, and the int8-quantized
  // query. Sized once per (store, params) shape and reused — steady-state
  // quantized queries allocate nothing, same contract as the rest of the
  // scratch.
  std::vector<float> adc_table;
  std::vector<float> quant_query_f;
  std::vector<std::int8_t> quant_query_i8;
};

inline SearchScratch& local_search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

// Prefetch the first cache lines of a coordinate row. Shared with the
// construction hot path (core/prune.h gathers candidate rows the same way
// the beam loop gathers neighbor rows).
template <typename T>
inline void beam_prefetch_point(const T* row, std::size_t d) {
  const char* p = reinterpret_cast<const char*>(row);
  __builtin_prefetch(p, 0, 3);
  if (d * sizeof(T) > 64) __builtin_prefetch(p + 64, 0, 3);
}

// Distance view over full-precision rows: the prepared query and the point
// set it is compared against. The quantized views (QuantizedQuery in
// quant/quantized_store.h, the PQ-table view in ivf/pq_graph_search.h)
// offer the same eval/prefetch pair over compressed codes.
template <typename Metric, typename T>
struct RowView {
  RowView(const T* q, const PointSet<T>& ps)
      : query(q), points(&ps), dims(ps.dims()),
        prep(Metric::prepare(q, dims)) {}

  float eval(PointId id) const {
    return Metric::eval(prep, query, (*points)[id], dims);
  }
  void prefetch(PointId id) const { beam_prefetch_point((*points)[id], dims); }

  const T* query;
  const PointSet<T>* points;
  std::size_t dims;
  typename Metric::Prepared prep;
};

// Admission policy of an unfiltered search: the traversal beam itself is
// the result frontier.
struct AdmitAll {};

namespace internal {

// Admission policy of a filtered search: points passing `pred` enter a
// separate `matched` list (sorted, capped at max(L, k)) that becomes the
// result frontier. The bound check runs first so the (potentially costly)
// predicate is skipped for points that could not place anyway.
template <typename Pred>
struct AdmitMatching {
  const Pred& pred;
  std::vector<Neighbor>& matched;
  std::size_t cap;

  void operator()(PointId id, float dist) const {
    Neighbor nb{id, dist};
    if (matched.size() >= cap && !(nb < matched.back())) return;
    if (!pred(id)) return;
    auto it = std::lower_bound(matched.begin(), matched.end(), nb);
    if (it != matched.end() && it->id == id && it->dist == dist) return;
    if (matched.size() >= cap) matched.pop_back();
    matched.insert(it, nb);
  }
};

// The seen table of a search of width `beam`: the pooled ApproxVisitedSet
// (the paper's optimization, reset in O(1)), or a fresh reference set built
// into `own`.
template <typename VisitedSet>
VisitedSet& seen_table(SearchScratch& scratch, std::optional<VisitedSet>& own,
                       std::size_t beam) {
  if constexpr (std::is_same_v<VisitedSet, ApproxVisitedSet>) {
    scratch.seen.reset(beam);
    return scratch.seen;
  } else {
    return own.emplace(beam);
  }
}

// The one greedy traversal loop. Every graph search in the library —
// unfiltered, filtered, int8/PQ-quantized, PQ-graph, and the HNSW descent —
// is this function with a different distance view and admission policy:
//
//   * `view.eval(id)` is the distance of the prepared query to point id and
//     `view.prefetch(id)` warms whatever eval(id) will read. The loop never
//     touches coordinates or codes itself.
//   * `admit` is AdmitAll (the beam of width Lt is the result frontier) or
//     an AdmitMatching predicate gate. A gate sees every evaluated point
//     BEFORE the traversal's `worst`/epsilon cuts: a matching point too far
//     to steer the walk can still be a top-k result, while filtered-out
//     points keep conducting the walk toward the filtered region.
//   * `Lt` is the traversal beam width: beam_width, or the widened
//     ceil(beam_width * filter_beam_factor) of a filtered search.
//
// result.frontier is the beam (AdmitAll) or the matched list; result.visited
// is the processing order in both cases.
template <typename VisitedSet, typename View, typename Admit>
SearchResult traverse(const View& view_in, const Graph& g,
                      std::span<const PointId> starts,
                      const SearchParams& params, std::size_t Lt,
                      const Admit& admit, SearchScratch& scratch) {
  constexpr bool kAdmitAll = std::is_same_v<Admit, AdmitAll>;
  // A local copy: the beam's unsigned-char stores may alias anything, so
  // fields read through a reference would be reloaded on every eval.
  const View view = view_in;
  const std::size_t k = std::max<std::size_t>(params.k, 1);
  const float cut = 1.0f + params.epsilon;
  const float kInf = std::numeric_limits<float>::infinity();

  std::optional<VisitedSet> own_seen;
  VisitedSet& seen = seen_table(scratch, own_seen, Lt);

  // The beam is a flat sorted array of at most Lt entries with a parallel
  // processed-flag array: both pooled buffers are sized once to Lt + 1 and
  // addressed through raw pointers with an explicit size.
  if (scratch.beam.size() < Lt + 1) {
    scratch.beam.resize(Lt + 1);
    scratch.processed.resize(Lt + 1);
  }
  static_assert(std::is_trivially_copyable_v<Neighbor>);  // memmoved below
  Neighbor* const beam = scratch.beam.data();
  unsigned char* const processed = scratch.processed.data();
  std::size_t size = 0;
  // beam[cursor] is the closest unprocessed entry (cursor == size when there
  // is none): every entry before it is processed, an insert before it moves
  // it back to the new entry, and each hop advances it past the entry it
  // claims.
  std::size_t cursor = 0;
  scratch.processed_ids.reset(
      std::min<std::size_t>(params.visit_limit, 4 * Lt));

  SearchResult result;
  result.visited.reserve(std::min(params.visit_limit, 4 * Lt));
  std::uint64_t evals = 0;

  auto insert_candidate = [&](PointId id, float dist) {
    const Neighbor nb{id, dist};
    // Branch-free lower_bound under (dist, id). It probes in the same order
    // as libstdc++'s std::lower_bound, so the slot is identical even for
    // input that is not partitioned (NaN distances).
    const Neighbor* first = beam;
    std::size_t len = size;
    while (len > 0) {
      const std::size_t half = len >> 1;
      const Neighbor& mid = first[half];
      const bool less =
          (mid.dist < dist) | ((mid.dist == dist) & (mid.id < id));
      first += less ? half + 1 : 0;
      len = less ? len - half - 1 : half;
    }
    const std::size_t pos = static_cast<std::size_t>(first - beam);
    if (pos < size && beam[pos].id == id && beam[pos].dist == dist) return;
    if (size >= Lt) {
      if (!(nb < beam[size - 1])) return;
      --size;  // evict the worst entry
    }
    std::memmove(beam + pos + 1, beam + pos, (size - pos) * sizeof(Neighbor));
    std::memmove(processed + pos + 1, processed + pos, size - pos);
    beam[pos] = nb;
    processed[pos] = 0;
    ++size;
    if (pos < cursor) cursor = pos;
  };

  for (PointId s : starts) {
    if (seen.test_and_set(s)) continue;
    ++evals;
    float d = view.eval(s);
    if constexpr (!kAdmitAll) admit(s, d);
    insert_candidate(s, d);
  }

  while (cursor < size && result.visited.size() < params.visit_limit) {
    processed[cursor] = 1;
    const Neighbor current = beam[cursor];
    while (cursor < size && processed[cursor]) ++cursor;
    // Warm the adjacency row the next hop will most likely expand, so its
    // read overlaps this hop's distance evaluations.
    if (cursor < size) g.prefetch_neighbors(beam[cursor].id);
    // Re-processing guard: the seen-table may drop an id on a collision, so
    // it alone cannot keep an already-expanded node from re-entering the
    // beam; this exact set can. The duplicate-free visited contract is
    // enforced HERE, not assumed from beam policy —
    // tests/test_query_hot_path.cpp asserts it under collision-heavy tables.
    if (!scratch.processed_ids.insert(current.id)) continue;
    result.visited.push_back(current);

    // (1+eps) pruning radius: current k-th nearest seen (or worst if < k).
    float dk = size >= k ? beam[k - 1].dist : beam[size - 1].dist;
    float radius = dk < 0 ? dk / cut : dk * cut;  // handles negative (MIPS)
    float worst = size >= Lt ? beam[size - 1].dist : kInf;

    // Phase 1: gather unseen neighbors, prefetching what eval will read.
    scratch.gather.clear();
    for (PointId nb_id : g.neighbors(current.id)) {
      if (seen.test_and_set(nb_id)) continue;
      scratch.gather.push_back(nb_id);
      view.prefetch(nb_id);
    }
    evals += scratch.gather.size();

    // Phase 2: evaluate, admit, and queue.
    for (PointId nb_id : scratch.gather) {
      float d = view.eval(nb_id);
      if constexpr (!kAdmitAll) admit(nb_id, d);
      if (d > worst) continue;
      if (params.epsilon > 0.0f && d > radius) continue;
      insert_candidate(nb_id, d);
      worst = size >= Lt ? beam[size - 1].dist : kInf;
    }
  }

  DistanceCounter::bump(evals);
  if constexpr (kAdmitAll) {
    result.frontier.assign(beam, beam + size);
  } else {
    result.frontier.assign(admit.matched.begin(), admit.matched.end());
  }
  return result;
}

}  // namespace internal

// Quantized beam search over a bound QuantView (see
// src/quant/quantized_store.h: store.bind(query, scratch) produces the
// view). Rerank is layered on top by the caller (ann::exact_rerank) — this
// routine never reads coordinates.
template <typename QuantView, typename VisitedSet = ApproxVisitedSet>
SearchResult quantized_beam_search(const QuantView& qv, const Graph& g,
                                   std::span<const PointId> starts,
                                   const SearchParams& params,
                                   SearchScratch& scratch) {
  return internal::traverse<VisitedSet>(
      qv, g, starts, params, std::max<std::uint32_t>(params.beam_width, 1),
      AdmitAll{}, scratch);
}

// Filter-aware beam search: like beam_search, but only points for which
// pred(id) is true enter the result frontier (<= max(L, k) entries).
// Filtered-out points still conduct the traversal. params.filter_beam_factor
// widens the traversal beam to ceil(L * factor): at selectivity s only ~s of
// the traversal work lands on admissible points, so the beam needs
// proportionally more slack (<= 1 means no widening at this layer; AnyIndex
// resolves AUTO before calling down here). A factor whose widened width has
// no size_t value (NaN, +inf) throws std::invalid_argument.
template <typename Metric, typename T, typename Pred,
          typename VisitedSet = ApproxVisitedSet>
SearchResult filtered_beam_search(const T* query, const PointSet<T>& points,
                                  const Graph& g,
                                  std::span<const PointId> starts,
                                  const SearchParams& params,
                                  const Pred& pred) {
  SearchScratch& scratch = local_search_scratch();
  const std::size_t L = std::max<std::size_t>(params.beam_width, 1);
  const float factor = std::max(params.filter_beam_factor, 1.0f);
  const double wide = std::ceil(static_cast<double>(L) * factor);
  // Range-checked before the conversion: NaN and widths past size_t's range
  // have no integer value.
  if (!(wide < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(
        "filtered_beam_search: ceil(beam_width * filter_beam_factor) is not "
        "a representable width");
  }
  const std::size_t Lt =
      std::max<std::size_t>(L, static_cast<std::size_t>(wide));
  const std::size_t cap = std::max<std::size_t>(L, params.k);
  scratch.matched.clear();
  scratch.matched.reserve(cap + 1);
  return internal::traverse<VisitedSet>(
      RowView<Metric, T>(query, points), g, starts, params, Lt,
      internal::AdmitMatching<Pred>{pred, scratch.matched, cap}, scratch);
}

// Beam search for `query` over graph g from the given start points, using
// the caller's scratch. VisitedSet is ApproxVisitedSet (default, the
// paper's optimization — drawn from the scratch pool) or ExactVisitedSet
// (reference; used by the ablation bench and property tests).
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
SearchResult beam_search(const T* query, const PointSet<T>& points,
                         const Graph& g, std::span<const PointId> starts,
                         const SearchParams& params, SearchScratch& scratch) {
  return internal::traverse<VisitedSet>(
      RowView<Metric, T>(query, points), g, starts, params,
      std::max<std::uint32_t>(params.beam_width, 1), AdmitAll{}, scratch);
}

// Convenience overload on the per-thread scratch pool.
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
SearchResult beam_search(const T* query, const PointSet<T>& points,
                         const Graph& g, std::span<const PointId> starts,
                         const SearchParams& params) {
  return beam_search<Metric, T, VisitedSet>(query, points, g, starts, params,
                                            local_search_scratch());
}

// Convenience wrapper: ids of the k approximate nearest neighbors.
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
std::vector<PointId> search_knn(const T* query, const PointSet<T>& points,
                                const Graph& g,
                                std::span<const PointId> starts,
                                const SearchParams& params) {
  return beam_search<Metric, T, VisitedSet>(query, points, g, starts, params)
      .top_k_ids(params.k);
}

}  // namespace ann
