/// \file landmarks.h
/// ALT (A*, Landmarks, Triangle inequality) lower bounds [Goldberg &
/// Harrelson, SODA'05], used by the goal-oriented path searches of paper
/// Section III-C to lower-bound *congestion* cost between vertices.
///
/// Landmarks are selected by a batched "avoid farthest" greedy on the given
/// metric: each round picks up to `batch` candidates — the farthest vertex
/// from the chosen set, then further candidates pushed apart using the ALT
/// bounds of the tables built so far — and computes their full-graph
/// Dijkstra tables, in parallel on a ThreadPool when one is provided. With
/// batch == 1 this is exactly the classic fully sequential greedy; larger
/// batches trade a little selection quality for table-build parallelism.
/// Selection is deterministic and independent of the pool's thread count.
/// For every landmark we store distances to all vertices, and
/// dist(x, y) >= max_L |d(L, x) - d(L, y)| gives an admissible estimate.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "util/thread_pool.h"

namespace cdst {

class Landmarks {
 public:
  /// Builds k landmarks on graph g with the given (static) edge lengths.
  /// Accepts any edge-length functor (ArrayLength, a lambda, ...);
  /// the k full-graph Dijkstra runs instantiate the kernel on that concrete
  /// type, so preprocessing pays no per-edge indirection. `pool` (optional,
  /// borrowed for the constructor only) parallelizes the per-round table
  /// builds; it never changes which landmarks are picked.
  template <typename LengthFn>
  Landmarks(const Graph& g, const LengthFn& length, std::size_t k,
            ThreadPool* pool = nullptr, std::size_t batch = 1) {
    const std::size_t n = g.num_vertices();
    CDST_CHECK(n > 0);
    k = std::min(k, n);
    if (batch == 0) batch = 1;

    // min_dist[v] = distance from v to the nearest chosen landmark.
    std::vector<double> min_dist(n, DijkstraResult::kInf);
    while (picks_.size() < k) {
      // The first round anchors the greedy at vertex 0 (the classic rule);
      // later rounds batch up to `batch` candidates.
      const std::size_t want =
          picks_.empty() ? 1 : std::min(batch, k - picks_.size());
      const std::vector<VertexId> cands = select_candidates(min_dist, want);

      const std::size_t base = tables_.size();
      tables_.resize(base + cands.size());
      const std::function<void(std::size_t)> build = [&](std::size_t i) {
        DijkstraResult r = dijkstra(g, {cands[i]}, length);
        // Unreachable vertices keep +inf in the table; lower_bound() then
        // yields +inf - +inf = nan, so zero them instead (conservative: the
        // bound degrades to 0 across disconnected pairs).
        for (double& d : r.dist) {
          if (d == DijkstraResult::kInf) d = 0.0;
        }
        tables_[base + i] = std::move(r.dist);
      };
      if (pool != nullptr && cands.size() > 1) {
        pool->parallel_for(0, cands.size(), build);
      } else {
        for (std::size_t i = 0; i < cands.size(); ++i) build(i);
      }

      // Fold the round's tables into min_dist (serial: deterministic).
      for (std::size_t i = 0; i < cands.size(); ++i) {
        picks_.push_back(cands[i]);
        const std::vector<double>& table = tables_[base + i];
        for (VertexId v = 0; v < n; ++v) {
          min_dist[v] = std::min(min_dist[v], table[v]);
        }
      }
    }
  }

  std::size_t count() const { return tables_.size(); }

  /// Admissible lower bound on the length of any x-y path.
  double lower_bound(VertexId x, VertexId y) const {
    double best = 0.0;
    for (const auto& table : tables_) {
      const double d = table[x] - table[y];
      const double ad = d < 0 ? -d : d;
      if (ad > best) best = ad;
    }
    return best;
  }

  /// Distance table of landmark i (for tests).
  const std::vector<double>& table(std::size_t i) const { return tables_[i]; }
  /// All tables, dense per-vertex — feeds PlaneBoundData::landmark_tables.
  const std::vector<std::vector<double>>& tables() const { return tables_; }
  VertexId landmark(std::size_t i) const { return picks_[i]; }

 private:
  /// Deterministic candidate picks for one round. The first candidate is the
  /// plain avoid-farthest choice (vertex 0 when nothing is picked yet);
  /// within the round, further candidates maximize the estimated distance to
  /// both the chosen landmarks (min_dist) and this round's earlier
  /// candidates — estimated via the ALT bound over the tables already built,
  /// which is all we have before the candidates' own tables exist.
  std::vector<VertexId> select_candidates(const std::vector<double>& min_dist,
                                          std::size_t want) const {
    std::vector<VertexId> cands;
    if (picks_.empty()) {
      cands.push_back(0);
      return cands;
    }
    const auto n = static_cast<VertexId>(min_dist.size());
    while (cands.size() < want) {
      double far = -1.0;
      VertexId next = kInvalidVertex;
      for (VertexId v = 0; v < n; ++v) {
        double score = min_dist[v];
        for (const VertexId c : cands) {
          score = std::min(score, lower_bound(c, v));
        }
        if (score > far && score < DijkstraResult::kInf) {
          far = score;
          next = v;
        }
      }
      if (next == kInvalidVertex) {
        // Everything unpicked is unreachable from the chosen set; degrade
        // like the classic greedy did: repeat the last pick.
        cands.push_back(cands.empty() ? picks_.back() : cands.back());
      } else {
        cands.push_back(next);
      }
    }
    return cands;
  }

  std::vector<std::vector<double>> tables_;
  std::vector<VertexId> picks_;
};

}  // namespace cdst
