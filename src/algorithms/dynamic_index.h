// Dynamic (insert/delete) DiskANN index — an extension along the paper's
// motivation (§1): vector databases need persistence, replication and crash
// recovery, which requires deterministic REBUILDABLE indexes; production
// systems additionally need batch updates. This implements FreshDiskANN-
// style maintenance on top of the deterministic batch machinery:
//
//   * insert(batch)  — append points, then run the same lock-free snapshot
//     batch-insert as the static builder (chunked so each chunk sees a
//     reasonable index, like prefix doubling);
//   * erase(ids)     — tombstone points: traversal still routes through
//     them (their edges remain navigationally useful) but they are never
//     returned from queries;
//   * consolidate()  — splice tombstoned vertices out: every vertex with a
//     deleted out-neighbor inherits that neighbor's live edges and
//     re-prunes (the FreshDiskANN delete rule), then tombstones' own lists
//     are cleared.
//
// Every operation is deterministic under the same contract as the static
// builders. The index is reachable through the unified API as algorithm
// "dynamic_diskann" (src/api/adapters.h wraps it behind AnyIndex's mutable
// surface and persists its tombstone state through the container format).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "parlay/parallel.h"

#include "algorithms/common.h"
#include "algorithms/diskann.h"
#include "core/beam_search.h"
#include "core/graph.h"
#include "core/points.h"
#include "core/prune.h"

namespace ann {

template <typename Metric, typename T>
class DynamicDiskANN {
 public:
  explicit DynamicDiskANN(std::size_t dims, DiskANNParams params = {})
      : points_(0, dims), graph_(0, 2 * params.degree_bound), params_(params) {}

  std::size_t size() const { return points_.size(); }
  std::size_t num_live() const { return points_.size() - num_deleted_; }
  std::size_t num_deleted() const { return num_deleted_; }
  const PointSet<T>& points() const { return points_; }
  const Graph& graph() const { return graph_; }
  PointId start() const { return start_; }
  bool is_deleted(PointId id) const { return deleted_[id]; }

  // Append a batch of new points and link them into the graph. Returns the
  // id of the first inserted point (ids are contiguous).
  PointId insert(const PointSet<T>& batch) {
    assert(batch.dims() == points_.dims());
    const std::size_t old_n = points_.size();
    points_.append_all(batch);
    return link_appended(old_n, batch);
  }

  // Initial-load overload taking ownership of the dataset (no copy of the
  // rows); on a non-empty index falls back to the appending path.
  PointId insert(PointSet<T>&& batch) {
    if (points_.size() != 0) return insert(batch);
    points_ = std::move(batch);
    return link_appended(0, points_);
  }

  // Tombstone points. They stop appearing in query results immediately;
  // graph edges are untouched until consolidate().
  void erase(std::span<const PointId> ids) {
    for (PointId id : ids) {
      assert(id < points_.size());
      if (!deleted_[id]) {
        deleted_[id] = 1;
        ++num_deleted_;
      }
    }
    if (start_ != kInvalidPoint && deleted_[start_]) relocate_start();
  }

  // Splice deleted vertices out of the graph (FreshDiskANN delete rule).
  void consolidate() {
    const std::size_t n = points_.size();
    const PruneParams prune{params_.degree_bound, params_.alpha};
    // Two-phase for determinism: compute all replacement lists against the
    // pre-consolidation snapshot, then install.
    std::vector<std::vector<PointId>> replacement(n);
    std::vector<unsigned char> dirty(n, 0);
    parlay::parallel_for(0, n, [&](std::size_t vi) {
      PointId v = static_cast<PointId>(vi);
      if (deleted_[v]) return;
      bool has_deleted_neighbor = false;
      for (PointId u : graph_.neighbors(v)) {
        if (deleted_[u]) {
          has_deleted_neighbor = true;
          break;
        }
      }
      if (!has_deleted_neighbor) return;
      // Inherited candidate lists are duplicate-heavy (several deleted
      // neighbors can share live two-hop targets, which may also sit in
      // v's own list); the prune entry dedups before any distance work.
      auto& ps = local_build_scratch();
      ps.merge_ids.clear();
      for (PointId u : graph_.neighbors(v)) {
        if (!deleted_[u]) {
          ps.merge_ids.push_back(u);
        } else {
          for (PointId w : graph_.neighbors(u)) {
            if (!deleted_[w] && w != v) ps.merge_ids.push_back(w);
          }
        }
      }
      auto kept =
          robust_prune_ids_into<Metric>(v, ps.merge_ids, points_, prune, ps);
      replacement[vi].assign(kept.begin(), kept.end());
      dirty[vi] = 1;
    }, 1);
    parlay::parallel_for(0, n, [&](std::size_t vi) {
      PointId v = static_cast<PointId>(vi);
      if (deleted_[v]) {
        graph_.clear_neighbors(v);
      } else if (dirty[vi]) {
        graph_.set_neighbors(v, replacement[vi]);
      }
    }, 1);
  }

  // k nearest LIVE neighbors with distances.
  std::vector<Neighbor> query_full(const T* q, const SearchParams& params) const {
    if (start_ == kInvalidPoint) return {};
    // Oversearch: tombstones occupy beam slots, so widen proportionally to
    // the deleted fraction.
    SearchParams sp = params;
    double live_frac =
        static_cast<double>(std::max<std::size_t>(num_live(), 1)) /
        static_cast<double>(std::max<std::size_t>(points_.size(), 1));
    sp.beam_width = static_cast<std::uint32_t>(
        static_cast<double>(std::max(params.beam_width, params.k)) /
        std::max(live_frac, 0.1));
    auto res = beam_search<Metric>(q, points_, graph_,
                                   std::span<const PointId>(&start_, 1), sp);
    std::vector<Neighbor> out;
    for (const auto& nb : res.frontier) {
      if (!deleted_[nb.id]) {
        out.push_back(nb);
        if (out.size() >= params.k) break;
      }
    }
    return out;
  }

  // k nearest LIVE neighbors.
  std::vector<PointId> query(const T* q, const SearchParams& params) const {
    auto full = query_full(q, params);
    std::vector<PointId> out;
    out.reserve(full.size());
    for (const auto& nb : full) out.push_back(nb.id);
    return out;
  }

  // --- persistence hooks (the container format's dynamic-state payload) ------

  const std::vector<unsigned char>& deleted_flags() const { return deleted_; }

  // Reinstall persisted state wholesale (the AnyIndex::load path). The
  // deleted count is recomputed from the bitmap, so the bitmap is the single
  // source of truth on disk.
  void restore(PointSet<T> points, Graph graph, PointId start,
               std::vector<unsigned char> deleted) {
    points_ = std::move(points);
    graph_ = std::move(graph);
    start_ = start;
    deleted_ = std::move(deleted);
    deleted_.resize(points_.size(), 0);
    num_deleted_ = 0;
    for (unsigned char d : deleted_) num_deleted_ += (d != 0) ? 1 : 0;
  }

 private:
  // Link points [old_n, points_.size()) into the graph; `fresh` views just
  // the appended rows (its medoid seeds the entry point on bootstrap).
  PointId link_appended(std::size_t old_n, const PointSet<T>& fresh) {
    deleted_.resize(points_.size(), 0);
    graph_.resize(points_.size());

    std::vector<PointId> ids(points_.size() - old_n);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<PointId>(old_n + i);
    }
    if (start_ == kInvalidPoint && !ids.empty()) {
      // Bootstrap (first load, or re-bootstrap after every point was
      // erased): the medoid of the incoming batch becomes the entry point
      // and is excluded from insertion (as in the static builder).
      start_ = static_cast<PointId>(old_n) + find_medoid<Metric>(fresh);
      std::erase(ids, start_);
    }
    // Chunk like prefix doubling: each chunk is at most ~2% of the index it
    // searches, but at least a constant so small updates stay cheap.
    internal::ReverseEdgeScratch rev_scratch;  // reused across chunks
    std::size_t pos = 0;
    while (pos < ids.size()) {
      std::size_t base = std::max<std::size_t>(old_n + pos, 50);
      std::size_t chunk = std::max<std::size_t>(1, base / 50);
      std::size_t end = std::min(ids.size(), pos + chunk);
      internal::diskann_batch_insert<Metric>(
          graph_, points_,
          std::span<const PointId>(ids.data() + pos, end - pos), start_,
          params_, rev_scratch);
      pos = end;
    }
    return static_cast<PointId>(old_n);
  }

  void relocate_start() {
    // Deterministic: the first live point becomes the new entry.
    start_ = kInvalidPoint;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!deleted_[i]) {
        start_ = static_cast<PointId>(i);
        return;
      }
    }
  }

  PointSet<T> points_;
  Graph graph_;
  DiskANNParams params_;
  PointId start_ = kInvalidPoint;
  std::vector<unsigned char> deleted_;
  std::size_t num_deleted_ = 0;
};

}  // namespace ann
