#include "core/cost_distance.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <thread>

#include "geom/nearest.h"
#include "geom/rect.h"
#include "graph/dijkstra.h"
#include "util/d_ary_heap.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/prefetch.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/sparse_map.h"
#include "util/two_level_heap.h"

namespace cdst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoComp = 0xffffffffu;
/// relax_to sentinel: relaxation rejected, no heap push owed.
constexpr std::uint32_t kNoPush = 0xffffffffu;
/// Backoff sleeps (50us doubling) before a contended shared dense-state
/// reservation falls back to sparse state (reserve_with_backoff).
constexpr int kBudgetBackoffAttempts = 6;

struct Label {
  VertexId vertex{kInvalidVertex};
  double g{kInf};
  std::uint32_t parent_idx{0xffffffffu};  ///< label arena index of predecessor
  EdgeId parent_edge{kInvalidEdge};
  std::uint32_t depth{0};  ///< #edges on the parent chain back to the seed
  bool settled{false};
  bool completion_pushed{false};
};

/// Reusable per-search scratch: a label arena plus a vertex -> label index.
/// In dense mode the index is an epoch-versioned flat array — resetting for
/// a new search is O(1) at any graph size: bump the epoch, clear the arena
/// (capacity retained), and grow the array only when a graph larger than
/// any before needs more slots — so the ~2t searches of a t-sink solve, and
/// the solves of a scratch recycled across windows of varying size, stop
/// churning the allocator and re-zeroing slots. Dense arrays cost O(n) per
/// live state and up to t+1 states are live at once, so above a memory
/// budget the pool falls back to a sparse (hash) index with O(touched)
/// memory — exactly the pre-pool trade-off, still recycling capacity
/// across searches.
struct SearchState {
  std::vector<Label> labels;  ///< arena; heap entries reference slots

  /// Starts a fresh search over a graph with n vertices.
  void reset(std::size_t n, bool dense) {
    labels.clear();
    dense_ = dense;
    if (!dense_) {
      sparse_.clear();
      return;
    }
    // Grow-only: slots past n stay unread, and stale slots below n never
    // match — their stamps predate this epoch, and their h stamps predate
    // the scratch's monotonic merge generation.
    if (slots_.size() < n) slots_.resize(n);
    if (++epoch_ == 0) {  // u16 wrap: invalidate all stamps the slow way
      std::fill(slots_.begin(), slots_.end(), VersionedSlot{});
      epoch_ = 1;
    }
  }

  /// Mutable slot for vertex v: label arena index + 1, 0 if unlabelled.
  std::uint32_t& slot(VertexId v) {
    if (!dense_) return sparse_[v];
    VersionedSlot& s = slots_[v];
    if (s.stamp != epoch_) {
      s.stamp = epoch_;
      s.idx = 0;
    }
    return s.idx;
  }

  /// Prefetch hint for a vertex about to be slot()-ed: the dense slot array
  /// is the relax loop's only data-dependent load, so warming it while the
  /// strip arithmetic runs hides most of the miss.
  void prefetch_slot(VertexId v) const {
    if (dense_) prefetch_write(&slots_[v]);
  }

  /// Future-bound memo, versioned by the solver's merge generation. The
  /// bound h(comp, x) is a function of the component (fixed for a state's
  /// lifetime — states are only recycled across a generation bump) and the
  /// set of active targets, which mutates exactly at merges; so a hit
  /// returns bit-identically what a recompute would. This matters: the
  /// nearest-neighbor query inside the bound dominates solve time (~86% of
  /// the profile before memoization), and every settle re-derives the bound
  /// for each neighbor it relaxes. Sparse mode skips the memo (a miss only
  /// costs the recompute the dense memo would have avoided — results are
  /// identical either way).
  bool h_cached(VertexId v, std::uint32_t gen, double* h) const {
    if (!dense_) return false;
    const VersionedSlot& s = slots_[v];
    if (s.h_stamp != static_cast<std::uint16_t>(gen)) return false;
    *h = s.h;
    return true;
  }
  void store_h(VertexId v, std::uint32_t gen, double h) {
    if (!dense_) return;
    slots_[v].h_stamp = static_cast<std::uint16_t>(gen);
    slots_[v].h = h;
  }

  static constexpr std::size_t slot_bytes() { return sizeof(VersionedSlot); }

 private:
  /// 16 bytes so four slots share a cache line: the relax loop's slot loads
  /// are the solver's dominant memory traffic, and grid graphs give same-row
  /// neighbours adjacent vertex ids — with 16-byte slots those land on the
  /// line the settled vertex already pulled (the 24-byte layout left them
  /// straddling lines). Keeping the memo value inside the slot matters the
  /// same way: a validated hit reads h off the line the probe just warmed.
  /// The u16 stamps are safe: the search epoch wraps inside reset() (full
  /// clear), and the solver fences the merge generation below 2^16
  /// (drop_all at solve setup), so a truncated comparison can never alias a
  /// stale stamp — including stamps left by solves over other graph sizes,
  /// which reset() keeps rather than re-zeroes.
  struct VersionedSlot {
    std::uint16_t stamp{0};    ///< valid iff equal to the owner's epoch
    std::uint16_t h_stamp{0};  ///< valid iff equal to the solver's merge gen
    std::uint32_t idx{0};
    double h{0.0};
  };
  static_assert(sizeof(VersionedSlot) == 16);
  std::vector<VersionedSlot> slots_;
  SparseMap<std::uint32_t> sparse_;  ///< vertex -> index + 1 (sparse mode)
  std::uint16_t epoch_{0};
  bool dense_{true};
};

/// Pool of SearchStates. At most #active-components states are live at once,
/// so the pool's high-water mark is t+1 states even though ~2t searches are
/// seeded over a solve. The pool itself lives in a SolverScratch, so the
/// arenas survive across solves.
class SearchStatePool {
 public:
  SearchStatePool() = default;

  /// Prepares the pool for one solve. Dense per-state index arrays cost
  /// (t+1) * n slot entries across the pool's high-water mark; the caller
  /// decides `dense` from its budget (per-solve bytes or the shared
  /// DenseStateBudget pool) — sparse states cost O(touched) memory and skip
  /// the future-bound memo, with identical results. Reclaims every state
  /// allocated by earlier solves — including states left un-released when a
  /// cancellation unwound a solve mid-flight. The free stack is filled in
  /// reverse, so acquire() hands states out in creation order: a solve draws
  /// the same states whatever larger solves have added behind them, and
  /// each state's arena settles at its largest use after one pass over a
  /// workload.
  void configure(std::size_t num_vertices, bool dense) {
    n_ = num_vertices;
    dense_ = dense;
    free_.clear();
    free_.reserve(all_.size());
    for (auto it = all_.rbegin(); it != all_.rend(); ++it) {
      free_.push_back(it->get());
    }
  }

  /// Drops every retained state (h-generation wrap fence; see solve setup).
  void drop_all() {
    all_.clear();
    free_.clear();
  }

  SearchState* acquire() {
    SearchState* st;
    if (!free_.empty()) {
      st = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<SearchState>());
      st = all_.back().get();
    }
    st->reset(n_, dense_);
    return st;
  }

  void release(SearchState* st) { free_.push_back(st); }

 private:
  std::size_t n_{0};
  bool dense_{true};
  std::vector<std::unique_ptr<SearchState>> all_;
  std::vector<SearchState*> free_;
};

/// One Dijkstra search (one per active sink component).
struct Search {
  SearchState* state{nullptr};  ///< owned by the pool; null when inactive
  bool active{false};
};

struct Component {
  double weight{0.0};
  VertexId terminal{kInvalidVertex};
  TreeAssembler::NodeId node{TreeAssembler::kNoNode};
  bool is_root{false};
  bool active{false};
  /// Whether the component's embedded tree is still a single vertex; only
  /// then is the congestion part of the future cost admissible under the
  /// component discount (Section III-C feasibility note).
  bool singleton{true};
};

/// Priority-queue facade: the paper's two-level structure (III-B) or a
/// single lazy binary heap for the ablation. Lazy mode pushes duplicates and
/// relies on the solver's settled/stale checks to skip superseded entries,
/// which is exactly how single-heap Dijkstra implementations work. Lives in
/// the SolverScratch and is reset per solve, keeping its storage.
class SolverQueue {
 public:
  struct Min {
    std::uint32_t group;
    std::uint32_t entry;
    double key;
  };

  /// Empties both queues — including whatever a cancelled or failed solve
  /// left behind — and selects the organization for the next solve.
  void reset(QueueKind kind) {
    kind_ = kind;
    two_level_.clear();
    lazy_.clear();
  }

  bool empty() const {
    return kind_ == QueueKind::kTwoLevel ? two_level_.empty() : lazy_.empty();
  }

  void push_or_decrease(std::uint32_t group, std::uint32_t entry, double key) {
    if (kind_ == QueueKind::kTwoLevel) {
      two_level_.push_or_decrease(group, entry, key);
    } else {
      lazy_.push(LazyEntry{key, group, entry});
    }
  }

  Min pop_global_min() {
    if (kind_ == QueueKind::kTwoLevel) {
      const auto m = two_level_.pop_global_min();
      return Min{m.group, m.entry, m.key};
    }
    const LazyEntry e = lazy_.top();
    lazy_.pop();
    return Min{e.group, e.entry, e.key};
  }

  /// Peeks the global minimum without popping. Precondition: !empty().
  Min peek_global_min() const {
    if (kind_ == QueueKind::kTwoLevel) {
      const auto m = two_level_.global_min();
      return Min{m.group, m.entry, m.key};
    }
    const LazyEntry& e = lazy_.top();
    return Min{e.group, e.entry, e.key};
  }

  /// Two-level mode drops a deactivated search's entries eagerly; lazy mode
  /// leaves them to be skipped at pop time.
  void erase_group(std::uint32_t group) {
    if (kind_ == QueueKind::kTwoLevel) two_level_.erase_group(group);
  }

 private:
  struct LazyEntry {
    double key;
    std::uint32_t group;
    std::uint32_t entry;
    bool operator<(const LazyEntry& o) const { return key < o.key; }
  };

  QueueKind kind_{QueueKind::kTwoLevel};
  TwoLevelHeap<double> two_level_;
  DAryQueue<LazyEntry, 4> lazy_;
};

}  // namespace

/// The recycled allocations behind a SolverScratch. Defined here (and only
/// here) because the members are internal solver machinery; the header hands
/// out an opaque handle. One Impl serves one solve at a time. Every member
/// is reset at solve setup and keeps its capacity, so a warm solve
/// allocates only its result.
struct SolverScratch::Impl {
  SearchStatePool state_pool;
  SolverQueue queue;
  /// Active-terminal index behind the A* bounds.
  L1NearestNeighbor nn;
  TreeAssembler assembler;
  TreeValidator validator;
  TreeEvalScratch eval;
  std::vector<Component> comps;
  std::vector<std::uint32_t> dsu_parent;
  std::vector<Search> searches;
  SparseMap<std::uint32_t> vertex_owner;
  SparseMap<std::uint32_t> edge_owner;
  /// Dense pre-filter in front of edge_owner: bit e set iff edge_owner has
  /// an entry for e. Most relaxed arcs are unowned, so the relax loop's
  /// III-A discount check becomes one bit test instead of a hash probe.
  std::vector<std::uint64_t> edge_owned_bits;
  std::vector<VertexId> path_verts;
  std::vector<EdgeId> path_edges;
  /// Box instances' arc strip: one generated vertex's arcs with their price
  /// slots and classes, padded to whole kRelaxStrip strips so the Vec4d
  /// loads stay in bounds.
  std::vector<VertexId> strip_heads;
  std::vector<EdgeId> strip_edges;
  std::vector<std::uint32_t> strip_slots;
  std::vector<std::uint32_t> strip_classes;
  AlignedVector<double> strip_cost;
  AlignedVector<double> strip_delay;
  /// Future-bound memo generation, monotonic across the scratch's lifetime
  /// so recycled SearchStates can never leak h-values between solves.
  std::uint32_t h_gen{0};
};

SolverScratch::SolverScratch() : impl_(std::make_unique<Impl>()) {}
SolverScratch::~SolverScratch() = default;
SolverScratch::SolverScratch(SolverScratch&&) noexcept = default;
SolverScratch& SolverScratch::operator=(SolverScratch&&) noexcept = default;

bool reserve_with_backoff(DenseStateBudget& budget, std::size_t bytes,
                          int attempts) {
  if (budget.try_reserve(bytes)) return true;
  // No sleeping when the pool can never hold this footprint: backoff would
  // only delay the caller's sparse fallback.
  if (static_cast<std::int64_t>(bytes) > budget.capacity_bytes()) return false;
  std::chrono::microseconds delay{50};
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::this_thread::sleep_for(delay);
    if (budget.try_reserve(bytes)) return true;
    delay *= 2;
  }
  return false;
}

namespace {

class Solver {
 public:
  Solver(const CostDistanceInstance& inst, const SolverOptions& opts,
         SolverScratch::Impl& scratch, const SolveControls* controls)
      : inst_(validated(inst)),
        opts_(opts),
        g_(inst.graph),
        box_(inst.box),
        c_(inst.cost),
        d_(inst.delay),
        prices_(inst.prices),
        assembler_(scratch.assembler),
        heap_(scratch.queue),
        scratch_(scratch),
        state_pool_(scratch.state_pool),
        comps_(scratch.comps),
        dsu_parent_(scratch.dsu_parent),
        searches_(scratch.searches),
        vertex_owner_(scratch.vertex_owner),
        edge_owner_(scratch.edge_owner),
        edge_owned_bits_(scratch.edge_owned_bits),
        path_verts_(scratch.path_verts),
        path_edges_(scratch.path_edges),
        nn_(scratch.nn),
        controls_(controls),
        rng_(opts.seed) {
    astar_on_ = opts_.use_astar && opts_.future_cost != nullptr;
    place_on_ = opts_.better_steiner_placement && opts_.future_cost != nullptr;
    // Every future cost is read through the oracle's inline bound form;
    // an oracle that publishes none is the caller's error.
    if (astar_on_ || place_on_) {
      pb_ = opts_.future_cost->plane_bounds();
      CDST_CHECK_MSG(pb_.valid(),
                     "future_cost oracle publishes no plane bounds");
    }
  }

  ~Solver() {
    // Shared-budget reservation unwinds with the solve, cancelled or not.
    if (budget_reserved_ > 0) {
      opts_.shared_dense_budget->release(budget_reserved_);
    }
  }

  SolveResult run() {
    init();
    const std::atomic<bool>* cancel =
        controls_ != nullptr ? controls_->cancel : nullptr;
    const bool deadline_set =
        controls_ != nullptr && controls_->deadline.has_value();
    const std::uint32_t poll =
        controls_ != nullptr && controls_->cancel_poll_interval > 0
            ? controls_->cancel_poll_interval
            : 4096;
    // First pop checks immediately (a pre-cancelled token or an
    // already-expired deadline must not pay for even one search), then
    // every `poll` pops.
    std::uint32_t since_poll = poll - 1;
    while (remaining_ > 0) {
      if ((cancel != nullptr || deadline_set) && ++since_poll >= poll) {
        since_poll = 0;
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          throw SolveCancelled();
        }
        if (deadline_set) throw_if_deadline_expired(controls_);
      }
      CDST_CHECK_MSG(!heap_.empty(),
                     "cost-distance: terminals are not connected in the graph");
      const auto top = heap_.pop_global_min();
      // Software-pipeline the pop loop: the new global minimum is (almost
      // always) the next label processed, and its Label line is a data-
      // dependent load the hardware prefetcher cannot see until the next
      // iteration begins. Warming it here overlaps the fetch with this
      // iteration's settle; when the settle pushes a new minimum instead,
      // the only cost is one speculatively-warmed line.
      if (!heap_.empty()) {
        const auto nxt = heap_.peek_global_min();
        if (nxt.group < searches_.size() && searches_[nxt.group].active) {
          prefetch_read(searches_[nxt.group].state->labels.data() +
                        (nxt.entry >> 1));
        }
      }
      const std::uint32_t u = top.group;
      if (u >= searches_.size() || !searches_[u].active) continue;
      const std::uint32_t label_idx = top.entry >> 1;
      if ((top.entry & 1u) != 0) {
        handle_completion(u, label_idx, top.key);
      } else {
        settle_and_relax(u, label_idx);
      }
    }

    SolveResult result;
    result.tree = assembler_.finalize();
    scratch_.validator.validate(result.tree, inst_.endpoints(),
                                inst_.sinks.size());
    result.eval = evaluate_tree(result.tree, inst_, scratch_.eval);
    result.stats = stats_;
    return result;
  }

 private:
  // ---------------------------------------------------------------- setup --
  static const CostDistanceInstance& validated(
      const CostDistanceInstance& inst) {
    inst.validate();
    return inst;
  }

  void init() {
    const auto t = static_cast<std::uint32_t>(inst_.sinks.size());

    // Dense-state footprint of this solve: t+1 live searches x n vertices.
    // Against a shared budget pool the bytes are reserved up front (and
    // released by ~Solver) with bounded backoff on contention; standalone
    // solves compare against the per-solve byte budget. Either way a denial
    // degrades to sparse state with identical results.
    const std::size_t dense_bytes =
        (static_cast<std::size_t>(t) + 1) * inst_.num_vertices() *
        SearchState::slot_bytes();
    bool dense;
    if (opts_.shared_dense_budget != nullptr) {
      CDST_FAULT_POINT("solver.budget_reserve");
      dense = reserve_with_backoff(*opts_.shared_dense_budget, dense_bytes,
                                   kBudgetBackoffAttempts);
      if (dense) budget_reserved_ = dense_bytes;
    } else {
      dense = dense_bytes <= opts_.dense_state_budget_bytes;
    }

    // Recycled scratch: O(1)-ish resets that keep every allocation. The
    // h-generation is monotonic across solves so recycled states cannot leak
    // memoized bounds; slots store it truncated to u16, so before it could
    // reach the 16-bit wrap the retained states are dropped wholesale (fresh
    // states start at stamp 0) and it restarts — the 2^15 generations of
    // headroom left to the fence cover far more merges (one per sink) than
    // any single solve performs.
    state_pool_.configure(inst_.num_vertices(), dense);
    if (scratch_.h_gen >= 0x8000u) {
      state_pool_.drop_all();
      scratch_.h_gen = 0;
    }
    ++scratch_.h_gen;
    comps_.clear();
    dsu_parent_.clear();
    searches_.clear();
    heap_.reset(opts_.queue);
    assembler_.reset(inst_.endpoints());
    vertex_owner_.clear();
    edge_owner_.clear();
    edge_owned_bits_.assign((inst_.num_edges() + 63) / 64, 0);
    if (box_ != nullptr) {
      const std::size_t strip =
          (box_->max_degree() + kRelaxStrip - 1) / kRelaxStrip * kRelaxStrip;
      scratch_.strip_heads.resize(strip);
      scratch_.strip_edges.resize(strip);
      scratch_.strip_slots.resize(strip);
      scratch_.strip_classes.resize(strip);
      scratch_.strip_cost.resize(strip);
      scratch_.strip_delay.resize(strip);
    }

    assembler_.add_root(inst_.root);  // node 0
    comps_.resize(t + 1);
    dsu_parent_.resize(t + 1);
    for (std::uint32_t i = 0; i < t; ++i) {
      const Terminal& s = inst_.sinks[i];
      const TreeAssembler::NodeId node =
          assembler_.add_sink(s.vertex, static_cast<std::int32_t>(i));
      comps_[i] = Component{s.weight, s.vertex, node, false, true, true};
      dsu_parent_[i] = i;
      active_sink_weight_ += s.weight;
    }
    root_comp_ = t;
    comps_[t] = Component{0.0, inst_.root, 0, true, true, true};
    dsu_parent_[t] = t;

    // Terminal ownership; the root registers last so that a sink placed on
    // the root vertex immediately sees the root as a merge target.
    for (std::uint32_t i = 0; i < t; ++i) {
      vertex_owner_[inst_.sinks[i].vertex] = i;
    }
    vertex_owner_[inst_.root] = root_comp_;

    if (astar_on_) {
      nn_.reset(nn_bucket_size());
      for (std::uint32_t i = 0; i <= t; ++i) {
        nn_.insert(i, pb_.xy(comps_[i].terminal));
      }
    }

    searches_.resize(t + 1);
    for (std::uint32_t i = 0; i < t; ++i) seed_search(i);
    remaining_ = t;
  }

  std::int32_t nn_bucket_size() const {
    // Bucket side on the order of expected terminal spacing.
    Rect box;
    box.expand(pb_.xy(inst_.root));
    for (const Terminal& s : inst_.sinks) box.expand(pb_.xy(s.vertex));
    const double area = static_cast<double>(
        std::max<std::int64_t>(1, box.width() * box.height()));
    const double spacing =
        std::sqrt(area / static_cast<double>(inst_.sinks.size() + 1));
    return std::max<std::int32_t>(2, static_cast<std::int32_t>(spacing));
  }

  // ------------------------------------------------------------ ownership --
  std::uint32_t resolve(std::uint32_t comp) {
    while (dsu_parent_[comp] != comp) {
      dsu_parent_[comp] = dsu_parent_[dsu_parent_[comp]];
      comp = dsu_parent_[comp];
    }
    return comp;
  }

  std::uint32_t owner_of(VertexId v) {
    const std::uint32_t* p = vertex_owner_.find(v);
    return p == nullptr ? kNoComp : resolve(*p);
  }

  bool edge_has_owner(EdgeId e) const {
    return (edge_owned_bits_[e >> 6] >> (e & 63)) & 1u;
  }

  bool edge_discounted(EdgeId e, std::uint32_t comp) {
    if (!opts_.discount_components) return false;
    // Dense bit pre-filter: almost every relaxed arc is unowned, and the
    // bitset answers that without probing the hash map.
    if (!edge_has_owner(e)) return false;
    const std::uint32_t* p = edge_owner_.find(e);
    return p != nullptr && resolve(*p) == comp;
  }

  // --------------------------------------------------------------- search --
  void seed_search(std::uint32_t comp) {
    if (comp >= searches_.size()) searches_.resize(comp + 1);
    Search& s = searches_[comp];
    s.active = true;
    s.state = state_pool_.acquire();
    s.state->labels.push_back(Label{comps_[comp].terminal, 0.0, 0xffffffffu,
                                    kInvalidEdge, 0, false, false});
    s.state->slot(comps_[comp].terminal) = 1;  // arena index 0, stored +1
    heap_.push_or_decrease(comp, 0, future_bound(comp, comps_[comp].terminal));
  }

  void deactivate_search(std::uint32_t comp) {
    if (comp >= searches_.size() || !searches_[comp].active) return;
    searches_[comp].active = false;
    state_pool_.release(searches_[comp].state);
    searches_[comp].state = nullptr;
    heap_.erase_group(comp);
  }

  /// Admissible lower bound h_u(x) on the remaining search metric from x to
  /// the nearest active target (Section III-C). Memoized in the search state
  /// (see SearchState::h_cached) and invalidated wholesale — one generation
  /// bump — whenever a merge changes the target set.
  double future_bound(std::uint32_t comp, VertexId x) {
    if (!astar_on_) return 0.0;
    SearchState& st = *searches_[comp].state;
    double cached;
    if (st.h_cached(x, scratch_.h_gen, &cached)) return cached;
    // Every bound — single misses here, batched misses in the strip relax
    // loop — funnels through future_bounds_plane, so each h of a solve is
    // produced by one instruction sequence regardless of which path asked
    // first.
    double h;
    future_bounds_plane(comp, &x, 1, &h);
    return h;
  }

  /// Future bounds for up to Vec4d::kLanes vertices at once:
  /// the root-target term evaluates as Vec4d geometry (one L1/via-delta pass
  /// shared by the delay and cost bounds, landmark tables folded by exact
  /// max), then the per-vertex nearest-terminal probe and memo store run
  /// scalar. Lane arithmetic mirrors the scalar formula shapes exactly
  /// (util/simd.h bit-identity contract); the int32 coordinates and their
  /// L1 sums are exactly representable as doubles, so evaluating the deltas
  /// in double lanes loses nothing.
  void future_bounds_plane(std::uint32_t comp, const VertexId* xs,
                           std::uint32_t cnt, double* out) {
    const double w = comps_[comp].weight;
    const bool cost_ok = comps_[comp].singleton;  // discount feasibility
    const VertexId rootv = comps_[root_comp_].terminal;
    const Point3 pr = pb_.position(rootv);

    // Short groups pad with the last vertex: the pad lanes compute a valid
    // (discarded) bound instead of reading out of range.
    VertexId gx[Vec4d::kLanes];
    alignas(kVecAlign) double axd[Vec4d::kLanes];
    alignas(kVecAlign) double ayd[Vec4d::kLanes];
    alignas(kVecAlign) double azd[Vec4d::kLanes];
    for (std::uint32_t k = 0; k < Vec4d::kLanes; ++k) {
      gx[k] = xs[k < cnt ? k : cnt - 1];
      const Point3 p = pb_.position(gx[k]);
      axd[k] = static_cast<double>(p.x);
      ayd[k] = static_cast<double>(p.y);
      azd[k] = static_cast<double>(p.z);
    }
    const Vec4d dx = Vec4d::abs(Vec4d::load(axd) -
                                Vec4d::broadcast(static_cast<double>(pr.x)));
    const Vec4d dy = Vec4d::abs(Vec4d::load(ayd) -
                                Vec4d::broadcast(static_cast<double>(pr.y)));
    const Vec4d l1 = dx + dy;
    const Vec4d dz = Vec4d::abs(Vec4d::load(azd) -
                                Vec4d::broadcast(static_cast<double>(pr.z)));
    // h = w * delay_lb(x, root) [+ cost_lb(x, root)] — the same l1*unit +
    // dz*via expression shape per term as PlaneBoundData's scalar formulas.
    Vec4d h = Vec4d::broadcast(w) *
              (l1 * Vec4d::broadcast(pb_.min_unit_delay) +
               dz * Vec4d::broadcast(pb_.min_via_delay));
    if (cost_ok) {
      Vec4d clb = l1 * Vec4d::broadcast(pb_.min_unit_cost) +
                  dz * Vec4d::broadcast(pb_.min_via_cost);
      for (std::size_t i = 0; i < pb_.num_landmarks; ++i) {
        const double* t = pb_.landmark_tables[i].data();
        const Vec4d ad =
            Vec4d::abs(Vec4d::gather(t, gx) - Vec4d::broadcast(t[rootv]));
        // max(ad, clb) = (ad > clb) ? ad : clb — exactly the scalar fold.
        clb = Vec4d::max(ad, clb);
      }
      h = h + clb;
    }
    alignas(kVecAlign) double h4[Vec4d::kLanes];
    h.store(h4);

    SearchState& st = *searches_[comp].state;
    for (std::uint32_t k = 0; k < cnt; ++k) {
      double hk = h4[k];
      // Nearest other terminal in the plane.
      const std::int64_t nd = nn_.nearest_distance(pb_.xy(xs[k]), comp);
      if (nd != std::numeric_limits<std::int64_t>::max()) {
        const double dist = static_cast<double>(nd);
        double ht = dist * w * pb_.min_unit_delay;
        if (cost_ok) ht += dist * pb_.min_unit_cost;
        hk = std::min(hk, ht);
      }
      st.store_h(xs[k], scratch_.h_gen, hk);
      out[k] = hk;
    }
  }

  /// b(u, v) of the paper: optimally balanced weighted bifurcation penalty,
  /// with the Section III-E root discount.
  double b_value(std::uint32_t u, std::uint32_t o) {
    if (inst_.dbif <= 0.0) return 0.0;
    const double wu = comps_[u].weight;
    if (comps_[o].is_root) {
      const double rest = std::max(0.0, active_sink_weight_ - wu);
      double b = bifurcation_beta(wu, rest, inst_.dbif, inst_.eta);
      if (opts_.encourage_root) {
        b -= inst_.eta * inst_.dbif * wu;  // future saving of a root merge
      }
      return std::max(0.0, b);
    }
    return bifurcation_beta(wu, comps_[o].weight, inst_.dbif, inst_.eta);
  }

  void settle_and_relax(std::uint32_t u, std::uint32_t label_idx) {
    SearchState& su = *searches_[u].state;
    Label& lab = su.labels[label_idx];
    if (lab.settled) return;
    lab.settled = true;
    ++stats_.labels_settled;

    // Reaching another component's vertex creates a completion candidate
    // keyed by dist + b(u, v) ("whenever we enter a vertex v in S_i + r_i,
    // we add the optimally balanced weighted node delay", Theorem 1 proof).
    const std::uint32_t o = owner_of(lab.vertex);
    if (o != kNoComp && o != u) {
      if (comps_[o].active && !lab.completion_pushed) {
        lab.completion_pushed = true;
        heap_.push_or_decrease(u, label_idx * 2 + 1, lab.g + b_value(u, o));
      }
      // Foreign components are merge targets, never transit: expanding
      // through them would let later merge paths overwrite the (single-
      // valued) ownership and location maps, corrupting the structure.
      // Completing at the first touch realizes the end-side discount of
      // Section III-A anyway.
      return;
    }

    const double w = comps_[u].weight;
    const VertexId vtx = lab.vertex;
    const double base_g = lab.g;
    const std::uint32_t next_depth = lab.depth + 1;

    // Shared label update; `ng` must be computed as base_g + (c + w * d) so
    // the box and CSR paths stay bit-identical. Returns the heap entry id
    // of an accepted relaxation (kNoPush otherwise) — the caller issues the
    // push once the future bound is resolved, so relax_to never touches the
    // heap and both paths push in exactly arc order.
    const auto relax_to = [&](VertexId to, EdgeId e,
                              double ng) -> std::uint32_t {
      std::uint32_t& slot = su.slot(to);
      if (slot == 0) {
        su.labels.push_back(
            Label{to, ng, label_idx, e, next_depth, false, false});
        slot = static_cast<std::uint32_t>(su.labels.size());
        ++stats_.labels_relaxed;
        return (slot - 1) * 2;
      }
      Label& nl = su.labels[slot - 1];
      if (!nl.settled && ng < nl.g) {
        nl.g = ng;
        nl.parent_idx = label_idx;
        nl.parent_edge = e;
        nl.depth = next_depth;
        ++stats_.labels_relaxed;
        return (slot - 1) * 2;
      }
      return kNoPush;
    };

    if (box_ == nullptr) {
      // CSR instance: gather c and d per edge.
      const CostDelayLength metric{*c_, *d_, w};  // l_u(e) = c(e) + w d(e)
      for (const Graph::Arc& a : g_->arcs(vtx)) {
        // Edges already owned by u are traversed at zero *cost* under the
        // Section III-A discount; the delay part always applies.
        const double ng = base_g + (edge_discounted(a.edge, u)
                                        ? w * (*d_)[a.edge]
                                        : metric(a.edge));
        const std::uint32_t key = relax_to(a.to, a.edge, ng);
        if (key == kNoPush) continue;
        // Mirrors the strip tail exactly: the bare `ng` key when A* is off
        // (never `ng + 0.0`, which would flip a -0.0), the memoized bound
        // added on top otherwise.
        if (!astar_on_) {
          heap_.push_or_decrease(u, key, ng);
        } else {
          heap_.push_or_decrease(u, key, ng + future_bound(u, a.to));
        }
      }
      return;
    }

    // Box instance: the vertex's arcs are generated from the box into the
    // scratch strip (sized for the box's maximum degree, rounded up to
    // whole strips, so the Vec4d loads below stay in bounds; lanes beyond
    // the degree are computed and discarded), in the order a materialized
    // CSR holds them, and each arc's cost unit[class] * price[slot] and
    // delay delay[class] computed alongside.
    SolverScratch::Impl& sc = scratch_;
    const std::uint32_t deg =
        box_->arcs(vtx, sc.strip_heads.data(), sc.strip_edges.data(),
                   sc.strip_slots.data(), sc.strip_classes.data());
    const VertexId* heads = sc.strip_heads.data();
    const EdgeId* earr = sc.strip_edges.data();
    {
      const double* price = prices_.price.data();
      const double* unit = prices_.unit.data();
      const double* delay = prices_.delay.data();
      for (std::uint32_t k = 0; k < deg; ++k) {
        const std::uint32_t cls = sc.strip_classes[k];
        sc.strip_cost[k] = unit[cls] * price[sc.strip_slots[k]];
        sc.strip_delay[k] = delay[cls];
      }
    }
    const double* ac = sc.strip_cost.data();
    const double* ad = sc.strip_delay.data();

    // Blocked relaxation of the strip: metrics evaluate as two Vec4d
    // operations per kRelaxStrip arcs, head slots are prefetched while the
    // arithmetic runs, and the III-A discount probe is hoisted out entirely
    // for singleton components — which own no tree edges by construction.
    for (std::uint32_t a = 0; a < deg; ++a) su.prefetch_slot(heads[a]);
    const bool may_discount =
        opts_.discount_components && !comps_[u].singleton;
    const Vec4d bg4 = Vec4d::broadcast(base_g);
    const Vec4d w4 = Vec4d::broadcast(w);
    alignas(kVecAlign) double ng[kRelaxStrip];
    for (std::uint32_t s = 0; s < deg; s += kRelaxStrip) {
      const std::uint32_t cnt = std::min(kRelaxStrip, deg - s);
      // ng = base_g + (cost + w * delay): the same expression shape as the
      // CSR path, per the util/simd.h bit-identity contract.
      Vec4d ng0 = bg4 + (Vec4d::load(ac + s) + w4 * Vec4d::load(ad + s));
      Vec4d ng1 = bg4 + (Vec4d::load(ac + s + Vec4d::kLanes) +
                         w4 * Vec4d::load(ad + s + Vec4d::kLanes));
      if (may_discount) {
        // Edges already owned by u are traversed at zero *cost* under the
        // Section III-A discount; the delay part always applies. The
        // ownership probe is a scalar hash/bitset lookup; only the
        // discounted lanes re-blend.
        unsigned dm = 0;
        for (std::uint32_t k = 0; k < cnt; ++k) {
          if (edge_discounted(earr[s + k], u)) dm |= 1u << k;
        }
        if ((dm & 0xfu) != 0) {
          ng0 = Vec4d::blend(ng0, bg4 + w4 * Vec4d::load(ad + s),
                             static_cast<int>(dm & 0xfu));
        }
        if ((dm >> Vec4d::kLanes) != 0) {
          ng1 = Vec4d::blend(ng1,
                             bg4 + w4 * Vec4d::load(ad + s + Vec4d::kLanes),
                             static_cast<int>(dm >> Vec4d::kLanes));
        }
      }
      ng0.store(ng);
      ng1.store(ng + Vec4d::kLanes);
      // Accepted relaxations defer their pushes only to the end of the
      // strip: memo hits resolve inline off the VersionedSlot line the
      // relaxation just touched, misses batch up to Vec4d::kLanes-wide
      // through future_bounds_plane, and the pushes then replay in arc
      // order against fixed stack arrays. The bound cannot change a key:
      // h(comp, x) is pure w.r.t. the heap and label state within one
      // settle, so the heap sequence is identical to pushing inline.
      std::uint32_t pk[kRelaxStrip];    // lane index of accepted push
      std::uint32_t keys[kRelaxStrip];  // heap entry id of accepted push
      std::uint32_t np = 0;
      for (std::uint32_t k = 0; k < cnt; ++k) {
        const std::uint32_t key = relax_to(heads[s + k], earr[s + k], ng[k]);
        if (key != kNoPush) {
          pk[np] = k;
          keys[np] = key;
          ++np;
        }
      }
      if (np == 0) continue;
      if (!astar_on_) {
        for (std::uint32_t i = 0; i < np; ++i) {
          heap_.push_or_decrease(u, keys[i], ng[pk[i]]);
        }
        continue;
      }
      double h[kRelaxStrip];
      std::uint32_t miss[kRelaxStrip];
      std::uint32_t nm = 0;
      for (std::uint32_t i = 0; i < np; ++i) {
        double cached;
        if (su.h_cached(heads[s + pk[i]], scratch_.h_gen, &cached)) {
          h[i] = cached;
        } else {
          miss[nm++] = i;
        }
      }
      VertexId xs[Vec4d::kLanes];
      double out[Vec4d::kLanes];
      for (std::uint32_t m = 0; m < nm; m += Vec4d::kLanes) {
        const std::uint32_t gc = std::min(Vec4d::kLanes, nm - m);
        for (std::uint32_t k = 0; k < gc; ++k) {
          xs[k] = heads[s + pk[miss[m + k]]];
        }
        future_bounds_plane(u, xs, gc, out);
        for (std::uint32_t k = 0; k < gc; ++k) h[miss[m + k]] = out[k];
      }
      for (std::uint32_t i = 0; i < np; ++i) {
        heap_.push_or_decrease(u, keys[i], ng[pk[i]] + h[i]);
      }
    }
  }

  void handle_completion(std::uint32_t u, std::uint32_t label_idx,
                         double popped_key) {
    ++stats_.completions_popped;
    const SearchState& su = *searches_[u].state;
    const Label& lab = su.labels[label_idx];
    const std::uint32_t o = owner_of(lab.vertex);
    if (o == kNoComp || o == u || !comps_[o].active) {
      ++stats_.completions_stale;
      return;
    }
    // Components merge and the active sink weight shrinks over time, so the
    // stored key may be stale; re-validate lazily.
    const double true_key = lab.g + b_value(u, o);
    if (true_key > popped_key + 1e-9) {
      heap_.push_or_decrease(u, label_idx * 2 + 1, true_key);
      ++stats_.completions_stale;
      return;
    }
    merge(u, label_idx, o);
  }

  // ---------------------------------------------------------------- merge --
  void merge(std::uint32_t u, std::uint32_t label_idx, std::uint32_t o) {
    ++stats_.iterations;
    const SearchState& su = *searches_[u].state;

    // Reconstruct the search path seed -> labelled vertex into pooled
    // scratch, sized exactly from the label's recorded depth and filled
    // back-to-front (no reverse pass). Every label on the parent chain is
    // settled, so the chain and the depths are stable.
    std::vector<VertexId>& pverts = path_verts_;
    std::vector<EdgeId>& pedges = path_edges_;
    const std::uint32_t depth = su.labels[label_idx].depth;
    pverts.resize(depth + 1);
    pedges.resize(depth);
    {
      std::uint32_t cur = label_idx;
      for (std::uint32_t k = depth;; --k) {
        const Label& l = su.labels[cur];
        pverts[k] = l.vertex;
        if (l.parent_idx == 0xffffffffu) {
          CDST_ASSERT(k == 0);
          break;
        }
        CDST_ASSERT(k > 0);
        pedges[k - 1] = l.parent_edge;
        cur = l.parent_idx;
      }
    }

    // Trim the prefix that runs inside u's own tree (those edges already
    // exist; the search traverses them at zero connection cost under the
    // III-A discount) and stop at the first touch of a foreign component —
    // ownership may have shifted since labels were created, so the actual
    // partner can differ from o.
    std::size_t istar = 0;
    for (std::size_t i = 0; i < pverts.size(); ++i) {
      if (owner_of(pverts[i]) == u) istar = i;
    }
    std::size_t j = pverts.size() - 1;
    for (std::size_t i = istar + 1; i < pverts.size(); ++i) {
      const std::uint32_t oi = owner_of(pverts[i]);
      if (oi != kNoComp && oi != u && comps_[oi].active) {
        j = i;
        break;
      }
    }
    o = owner_of(pverts[j]);
    CDST_ASSERT(o != kNoComp && o != u && comps_[o].active);

    // Structural attachment (splits embedded segments as needed). Terminal
    // vertices may be shared by several components, and the assembler's
    // location map keeps only the last writer — attach through the
    // component's own recorded node in that case.
    const TreeAssembler::NodeId na =
        (istar == 0) ? comps_[u].node : assembler_.node_at(pverts[istar]);
    const TreeAssembler::NodeId nb = (pverts[j] == comps_[o].terminal)
                                         ? comps_[o].node
                                         : assembler_.node_at(pverts[j]);
    CDST_CHECK(na != TreeAssembler::kNoNode && nb != TreeAssembler::kNoNode);
    const std::span<const EdgeId> seg(pedges.data() + istar, j - istar);
    if (na != nb) assembler_.add_segment(na, nb, seg);

    // New merged component.
    const auto s = static_cast<std::uint32_t>(comps_.size());
    comps_.push_back(Component{});
    dsu_parent_.push_back(s);
    Component& cs = comps_.back();
    const bool root_merge = comps_[o].is_root;
    cs.active = true;
    cs.is_root = root_merge;
    cs.singleton = false;
    if (root_merge) {
      // Line 5: the root component absorbs u; the root position persists.
      cs.terminal = comps_[o].terminal;
      cs.node = comps_[o].node;
      cs.weight = comps_[u].weight;
      active_sink_weight_ -= comps_[u].weight;
    } else {
      cs.weight = comps_[u].weight + comps_[o].weight;
      const VertexId pos = choose_steiner_position(u, o, pverts, pedges,
                                                   istar, j);
      // Same last-writer caveat as above: map component terminals to their
      // own structural nodes.
      if (pos == comps_[u].terminal) {
        cs.node = comps_[u].node;
      } else if (pos == comps_[o].terminal) {
        cs.node = comps_[o].node;
      } else {
        cs.node = assembler_.node_at(pos);
      }
      CDST_CHECK(cs.node != TreeAssembler::kNoNode);
      cs.terminal = pos;
    }

    // Ownership updates: the new path belongs to s; old components resolve
    // to s through the DSU. Interior path vertices are always unowned here
    // (searches never expand through foreign components), so these writes
    // never clobber another component's registration.
    for (std::size_t i = istar; i <= j; ++i) vertex_owner_[pverts[i]] = s;
    for (const EdgeId e : seg) {
      edge_owner_[e] = s;
      edge_owned_bits_[e >> 6] |= std::uint64_t{1} << (e & 63);
    }
    dsu_parent_[u] = s;
    dsu_parent_[o] = s;
    comps_[u].active = false;
    comps_[o].active = false;
    if (root_merge) root_comp_ = s;

    deactivate_search(u);
    if (!comps_[o].is_root) deactivate_search(o);

    if (astar_on_) {
      if (nn_.active(u)) nn_.erase(u);
      if (nn_.active(o)) nn_.erase(o);
      nn_.insert(s, pb_.xy(cs.terminal));
    }
    // The active target set changed: every memoized future bound is stale.
    // Bumping the generation both invalidates surviving searches' memos and
    // fences recycled states (released above) from leaking h-values into the
    // search seeded below. Must stay below the u16 stamp wrap until the next
    // solve-setup fence; one bump per merge keeps this far away.
    ++scratch_.h_gen;
    CDST_ASSERT(scratch_.h_gen < 0x10000u);

    --remaining_;
    if (!root_merge) seed_search(s);
    // Merge ticks need no lock: a solve is single-threaded, so on_merge is
    // always invoked on the one solving thread (the session layer is what
    // serializes ticks from concurrent lanes before they reach an
    // EventSink — see api/events.h).
    if (controls_ != nullptr && controls_->on_merge) {
      MergeTick tick;
      tick.merges_done = stats_.iterations;
      tick.merges_total = inst_.sinks.size();
      tick.labels_settled = stats_.labels_settled;
      tick.completions_popped = stats_.completions_popped;
      controls_->on_merge(tick);
    }

    CDST_LOG(kDebug) << "merge comp " << u << " + " << o << " -> " << s
                     << (root_merge ? " (root)" : "") << ", path edges "
                     << seg.size() << ", remaining " << remaining_;
  }

  /// Section III-D (with future costs) or the randomized line-7 rule:
  /// position of the new Steiner vertex / component terminal.
  VertexId choose_steiner_position(std::uint32_t u, std::uint32_t o,
                                   const std::vector<VertexId>& pverts,
                                   const std::vector<EdgeId>& pedges,
                                   std::size_t istar, std::size_t j) {
    const double wu = comps_[u].weight;
    const double wo = comps_[o].weight;
    if (place_on_ && j > istar) {
      // Minimize  c(Q) + (wu+wo) d(Q) + wu d(P[au,s]) + wo d(P[s,ao])
      // with the s-root path Q estimated by future costs. The wo * d(P) term
      // is constant over candidate positions, so the argmin needs only the
      // running prefix — one pass, no up-front total-delay scan.
      const VertexId rootv = comps_[root_comp_].terminal;
      const double wsum = wu + wo;
      double prefix = 0.0;
      double best = kInf;
      VertexId best_v = pverts[istar];
      for (std::size_t i = istar; i <= j; ++i) {
        if (i > istar) prefix += inst_.edge_delay(pedges[i - 1]);
        const VertexId v = pverts[i];
        const double score = pb_.cost_lb(v, rootv) +
                             wsum * pb_.delay_lb(v, rootv) +
                             (wu - wo) * prefix;
        if (score < best) {
          best = score;
          best_v = v;
        }
      }
      return best_v;
    }
    // Line 7: random choice proportional to delay weights; the heavier
    // terminal is more likely to carry the Steiner vertex.
    const double sum = wu + wo;
    const double pu = sum > 0.0 ? wu / sum : 0.5;
    return rng_.bernoulli(pu) ? comps_[u].terminal : comps_[o].terminal;
  }

  // ----------------------------------------------------------------- data --
  const CostDistanceInstance& inst_;
  const SolverOptions& opts_;
  const Graph* g_;         ///< explicit CSR, or null for a box instance
  const BoxGraph* box_;    ///< implicit box graph, or null
  const std::vector<double>* c_;  ///< per-edge c of a CSR instance
  const std::vector<double>* d_;  ///< per-edge d of a CSR instance
  const BoxPrices prices_;        ///< slot/class prices of a box instance
  std::size_t budget_reserved_{0};  ///< bytes held in the shared pool

  // Recycled allocations, owned by the SolverScratch (see SolverScratch::Impl
  // above); reset in init(), capacity retained across solves.
  TreeAssembler& assembler_;
  SolverQueue& heap_;
  SolverScratch::Impl& scratch_;
  SearchStatePool& state_pool_;
  std::vector<Component>& comps_;
  std::vector<std::uint32_t>& dsu_parent_;
  std::vector<Search>& searches_;
  SparseMap<std::uint32_t>& vertex_owner_;
  SparseMap<std::uint32_t>& edge_owner_;
  std::vector<std::uint64_t>& edge_owned_bits_;
  /// Pooled merge() scratch for path reconstruction.
  std::vector<VertexId>& path_verts_;
  std::vector<EdgeId>& path_edges_;
  L1NearestNeighbor& nn_;

  const SolveControls* controls_{nullptr};
  Rng rng_;
  bool astar_on_{false};
  bool place_on_{false};
  /// The oracle's bounds; valid whenever astar_on_ or place_on_.
  PlaneBoundData pb_;

  std::uint32_t root_comp_{0};
  std::uint32_t remaining_{0};
  double active_sink_weight_{0.0};
  SolveStats stats_;
};

}  // namespace

SolveResult solve_cost_distance(const CostDistanceInstance& instance,
                                const SolverOptions& options,
                                SolverScratch* scratch,
                                const SolveControls* controls) {
  if (scratch != nullptr) {
    Solver solver(instance, options, scratch->impl(), controls);
    return solver.run();
  }
  SolverScratch local;
  Solver solver(instance, options, local.impl(), controls);
  return solver.run();
}

}  // namespace cdst
