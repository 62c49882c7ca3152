// Microbenchmarks for the priority-queue substrate (paper Section III-B):
// binary vs 4-ary heap on Dijkstra-shaped churn, the two-level heap on
// many-searches workloads and on the solver's recycled per-solve pattern,
// and a full grid Dijkstra. On sparse global routing graphs (m = O(n))
// binary heaps beat the Fibonacci heap of the paper's Theorem 1, which is
// why the searches use them.
//
// Emits BENCH_heaps.json by default (CI feeds it to the trend gate next to
// BENCH_cd_scaling.json); an explicit --benchmark_out= flag takes
// precedence.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "graph/dijkstra.h"
#include "util/binary_heap.h"
#include "util/d_ary_heap.h"
#include "util/rng.h"
#include "util/two_level_heap.h"

namespace {

using namespace cdst;

/// Dijkstra-shaped churn: pushes/decreases interleaved with pop_min.
template <typename Heap>
void churn(Heap& heap, Rng& rng, std::size_t ops, std::uint32_t id_range) {
  double drain_guard = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.uniform_double() < 0.6 || heap.empty()) {
      heap.push_or_decrease(static_cast<std::uint32_t>(rng.uniform(id_range)),
                            rng.uniform_double(0.0, 1e6));
    } else {
      drain_guard += heap.min_key();
      heap.pop_min();
    }
  }
  benchmark::DoNotOptimize(drain_guard);
}

void BM_BinaryHeapChurn(benchmark::State& state) {
  for (auto _ : state) {
    BinaryHeap<double> heap;
    Rng rng(1);
    churn(heap, rng, static_cast<std::size_t>(state.range(0)), 4096);
  }
}
BENCHMARK(BM_BinaryHeapChurn)->Arg(1 << 14)->Arg(1 << 16);

void BM_DAryHeapChurn(benchmark::State& state) {
  // The cache-friendly 4-ary heap on the same churn workload: siblings share
  // a cache line, so sift-down touches fewer lines than the binary heap.
  for (auto _ : state) {
    DAryHeap<double, 4> heap;
    Rng rng(1);
    churn(heap, rng, static_cast<std::size_t>(state.range(0)), 4096);
  }
}
BENCHMARK(BM_DAryHeapChurn)->Arg(1 << 14)->Arg(1 << 16);

void BM_TwoLevelHeapChurn(benchmark::State& state) {
  const auto groups = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    TwoLevelHeap<double> heap;
    Rng rng(1);
    double guard = 0.0;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      if (rng.uniform_double() < 0.6 || heap.empty()) {
        heap.push_or_decrease(static_cast<std::uint32_t>(rng.uniform(groups)),
                              static_cast<std::uint32_t>(rng.uniform(1024)),
                              rng.uniform_double(0.0, 1e6));
      } else {
        guard += heap.pop_global_min().key;
      }
    }
    benchmark::DoNotOptimize(guard);
  }
}
BENCHMARK(BM_TwoLevelHeapChurn)
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 64})
    ->Args({1 << 14, 512});

/// One solve's worth of queue traffic, the way the cost-distance solver
/// drives its two-level heap: seed every group, then pop the global minimum
/// and push a few successors with non-decreasing small-integer keys (so
/// most comparisons tie, as equal-cost labels do on a routing grid). Every
/// 200th pop abandons the popped label's group and reseeds it, as a merge
/// retires a search and seeds the merged component's. Entries still queued
/// at the end stay behind, as they do when a solve finishes. Returns a
/// checksum.
double solve_pattern(TwoLevelHeap<double>& heap, std::uint32_t groups,
                     Rng& rng) {
  constexpr std::uint32_t kEntries = 2048;
  constexpr std::size_t kPops = 6000;
  double guard = 0.0;
  for (std::uint32_t g = 0; g < groups; ++g) heap.push_or_decrease(g, 0, 0.0);
  for (std::size_t pop = 0; pop < kPops && !heap.empty(); ++pop) {
    const auto m = heap.pop_global_min();
    guard += m.key;
    for (int k = 0; k < 3; ++k) {
      heap.push_or_decrease(
          m.group, static_cast<std::uint32_t>(rng.uniform(kEntries)),
          m.key + static_cast<double>(rng.uniform(3)));
    }
    if (pop % 200 == 199) {
      heap.erase_group(m.group);
      heap.push_or_decrease(m.group, 0, m.key);
    }
  }
  return guard;
}

void BM_TwoLevelHeapSolves(benchmark::State& state) {
  // The solver's pattern across solves: fill, drain, clear(), repeat. A
  // recycled heap (the solver scratch's) keeps its sub-heaps' storage and
  // position maps and leaves entries behind for clear() to shed; the fresh
  // variant rebuilds the structure per solve, as the solver once did.
  const auto groups = static_cast<std::uint32_t>(state.range(0));
  const bool recycled = state.range(1) != 0;
  TwoLevelHeap<double> kept;
  double guard = 0.0;
  for (auto _ : state) {
    Rng rng(5);
    if (recycled) {
      guard += solve_pattern(kept, groups, rng);
      kept.clear();
    } else {
      TwoLevelHeap<double> fresh;
      guard += solve_pattern(fresh, groups, rng);
    }
  }
  benchmark::DoNotOptimize(guard);
  state.SetLabel(recycled ? "recycled" : "fresh");
}
BENCHMARK(BM_TwoLevelHeapSolves)
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({64, 1})
    ->Args({64, 0});

/// A side x side grid graph with random edge lengths (m = O(n), the shape of
/// all routing searches).
struct GridFixture {
  Graph g;
  std::vector<double> len;

  explicit GridFixture(int side) {
    GraphBuilder b(static_cast<std::size_t>(side) * side);
    auto id = [side](int x, int y) {
      return static_cast<VertexId>(y * side + x);
    };
    Rng grid_rng(3);
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) {
        if (x + 1 < side) {
          b.add_edge(id(x, y), id(x + 1, y));
          len.push_back(grid_rng.uniform_double(0.5, 4.0));
        }
        if (y + 1 < side) {
          b.add_edge(id(x, y), id(x, y + 1));
          len.push_back(grid_rng.uniform_double(0.5, 4.0));
        }
      }
    }
    g = Graph(b);
  }
};

void BM_DijkstraGrid(benchmark::State& state) {
  // Full Dijkstra over a routing-grid-shaped graph (m = O(n)) with a
  // concrete length functor, which the templated kernel inlines into the
  // relax loop.
  const GridFixture f(48);
  const ArrayLength length{f.len};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(f.g, {0}, length));
  }
}
BENCHMARK(BM_DijkstraGrid)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_heaps.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
