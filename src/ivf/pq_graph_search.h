// Quantized beam search — the paper's Open Question 3 ("How can
// quantization methods be efficiently parallelized and made deterministic,
// and how do such methods affect the choice of ANNS algorithms?").
//
// The graph is traversed with ADC (PQ table-lookup) distances instead of
// full-dimensional ones; the widened frontier is then re-ranked with exact
// distances. Both the PQ training (deterministic k-means) and the traversal
// (sorted beam, (dist, id) tie-breaking) keep the library's determinism
// guarantee, answering the "made deterministic" half; the bench
// (bench_ablation_pq_search) measures the cost/quality tradeoff half.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/beam_search.h"
#include "core/graph.h"
#include "core/points.h"
#include "core/visited_set.h"
#include "ivf/pq.h"

namespace ann {

// Distance view over PQ codes through a per-query ADC table.
template <typename T>
struct PQTableView {
  const ProductQuantizer<T>* pq;
  const std::vector<float>* table;
  const std::uint8_t* codes;

  float eval(PointId id) const { return pq->adc_eval(*table, codes, id); }
  void prefetch(PointId id) const {
    __builtin_prefetch(codes + static_cast<std::size_t>(id) *
                                   pq->num_subspaces(), 0, 3);
  }
};

// Beam search over g where candidate distances come from the PQ codes (the
// shared traversal of core/beam_search.h, without (1+eps) pruning or a visit
// limit). `rerank` of the best compressed candidates are re-scored exactly;
// the top-k of those are returned.
template <typename Metric, typename T>
std::vector<PointId> pq_search_knn(const T* query, const PointSet<T>& points,
                                   const ProductQuantizer<T>& pq,
                                   const std::vector<std::uint8_t>& codes,
                                   const Graph& g,
                                   std::span<const PointId> starts,
                                   const SearchParams& params,
                                   std::uint32_t rerank) {
  const auto table = pq.template adc_table<Metric>(query);
  SearchParams walk{.beam_width = params.beam_width, .k = params.k};
  const std::vector<Neighbor> beam =
      internal::traverse<ApproxVisitedSet>(
          PQTableView<T>{&pq, &table, codes.data()}, g, starts, walk,
          std::max<std::uint32_t>(params.beam_width, 1), AdmitAll{},
          local_search_scratch())
          .frontier;

  // Exact re-rank of the best compressed candidates (one batched bump).
  std::size_t depth = std::min<std::size_t>(
      beam.size(), std::max<std::uint32_t>(rerank, params.k));
  const auto prep = Metric::prepare(query, points.dims());
  std::vector<Neighbor> exact(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    exact[i] = {beam[i].id, Metric::eval(prep, query, points[beam[i].id],
                                         points.dims())};
  }
  DistanceCounter::bump(depth);
  std::sort(exact.begin(), exact.end());
  std::vector<PointId> out;
  for (std::size_t i = 0; i < exact.size() && out.size() < params.k; ++i) {
    out.push_back(exact[i].id);
  }
  return out;
}

}  // namespace ann
