/// \file simd.h
/// Portable 4-wide double vector (Vec4d) for the blocked relax kernels, with
/// an AVX2 implementation and a bit-identical scalar twin.
///
/// This is the ONLY file in the tree allowed to contain vendor intrinsics
/// (enforced by the `intrinsics-only-in-simd-header` invariant-linter rule);
/// kernels express their arithmetic through Vec4d and never see an ISA.
///
/// Dispatch policy: the AVX2 implementation compiles in under `__AVX2__`
/// (e.g. -march=x86-64-v3, the CI bench ISA, or -march=native via the
/// bench-native preset) unless `CDST_FORCE_SCALAR` is defined (the
/// CDST_FORCE_SCALAR CMake option / force-scalar preset), which pins the
/// scalar twin even on vector ISAs so both paths stay buildable and testable
/// on every lane.
///
/// Bit-identity contract: both implementations evaluate the same expression
/// trees in the same association order. Arithmetic is written as plain
/// mul/add expressions in BOTH twins — the AVX2 intrinsics below lower to
/// ordinary vector mul/add operations, so the build's floating-point
/// contraction policy applies to the scalar code, the scalar twin, and the
/// AVX2 path identically. cdst's own targets compile with
/// -ffp-contract=off, so no build fuses `a + b*c` into an fma, even on an
/// ISA that has one, and every ISA computes the baseline's bits. Comparison,
/// blend, min/max and abs are exact bit operations on every path. The
/// simd_test property matrix asserts lane-for-lane bit-identity between the
/// two twins across denormal, huge and zero operands.
///
/// Alignment contract: strip arrays are allocated through AlignedAllocator
/// (32-byte base alignment). The cost-distance solver's box strip is a whole
/// number of kRelaxStrip strips long, so its full-width Vec4d loads on a
/// partial last strip stay inside the allocation; ArcCostView pads
/// kRelaxStrip zero doubles past its logical size for the same guarantee.
/// Loads still use the unaligned encoding (strip offsets within the array
/// are arbitrary); base alignment keeps them from straddling extra cache
/// lines.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__AVX2__) && !defined(CDST_FORCE_SCALAR)
#define CDST_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace cdst {

/// Arcs per blocked relax strip — two Vec4d's. Shared by the dijkstra.h
/// kernel and the cost-distance box relax so the strip width and the
/// vector width can never drift apart.
inline constexpr std::uint32_t kRelaxStrip = 8;

/// Byte alignment of vectorizable strip allocations (the AVX2 vector width).
inline constexpr std::size_t kVecAlign = 32;

/// STL allocator with a fixed over-alignment; ArcCostView's owned strip and
/// the solver's box strip use it so Vec4d loads never straddle an extra
/// cache line.
template <typename T, std::size_t Align = kVecAlign>
struct AlignedAllocator {
  using value_type = T;
  /// Spelled out because allocator_traits cannot synthesize a rebind across
  /// the non-type Align parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): allocator rebind requires
  // the implicit converting constructor.
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const {
    return true;
  }
};

/// std::vector with kVecAlign-aligned storage (the strip container).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

#if defined(CDST_SIMD_AVX2)

/// Four doubles in one AVX2 register.
struct Vec4d {
  __m256d v;

  static constexpr std::uint32_t kLanes = 4;
  static const char* isa() { return "avx2"; }

  static Vec4d load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec4d broadcast(double x) { return {_mm256_set1_pd(x)}; }
  /// lanes { base[idx[0]], .., base[idx[3]] }. Indices are VertexId-sized
  /// (uint32) and interpreted as non-negative (graphs stay far below 2^31
  /// vertices).
  static Vec4d gather(const double* base, const std::uint32_t* idx) {
    // The masked form with an all-set mask is the same full gather, but its
    // explicit zero source operand avoids GCC's -Wmaybe-uninitialized on the
    // plain wrapper's undefined passthrough register.
    return {_mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), base,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  // GCC/Clang implement these intrinsics as plain vector mul/add, so fp
  // contraction treats them exactly like the scalar expressions they mirror
  // (see the bit-identity contract in the file comment).
  friend Vec4d operator+(Vec4d a, Vec4d b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Vec4d operator-(Vec4d a, Vec4d b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend Vec4d operator*(Vec4d a, Vec4d b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }

  /// a*b + c with the same expression shape as the scalar twin (fused or not
  /// together with it, per the build's contraction policy).
  static Vec4d mul_add(Vec4d a, Vec4d b, Vec4d c) { return a * b + c; }

  /// Per-lane (a < b) ? a : b — exactly vminpd's NaN/zero semantics.
  static Vec4d min(Vec4d a, Vec4d b) { return {_mm256_min_pd(a.v, b.v)}; }
  /// Per-lane (a > b) ? a : b — exactly vmaxpd's NaN/zero semantics.
  static Vec4d max(Vec4d a, Vec4d b) { return {_mm256_max_pd(a.v, b.v)}; }
  /// Per-lane |a| (sign bit cleared; exact for every value incl. NaN).
  static Vec4d abs(Vec4d a) {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }

  /// Bit k set iff a.lane[k] < b.lane[k] (ordered: NaN compares false).
  static int lt_mask(Vec4d a, Vec4d b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ));
  }

  /// Lane k from b where bit k of `mask` is set, else from a (mask in
  /// [0, 16)).
  static Vec4d blend(Vec4d a, Vec4d b, int mask) {
    alignas(kVecAlign) static constexpr std::uint64_t kLaneBits[16][4] = {
        {0, 0, 0, 0},  {~0ull, 0, 0, 0},  {0, ~0ull, 0, 0},
        {~0ull, ~0ull, 0, 0},  {0, 0, ~0ull, 0},  {~0ull, 0, ~0ull, 0},
        {0, ~0ull, ~0ull, 0},  {~0ull, ~0ull, ~0ull, 0},
        {0, 0, 0, ~0ull},  {~0ull, 0, 0, ~0ull},  {0, ~0ull, 0, ~0ull},
        {~0ull, ~0ull, 0, ~0ull},  {0, 0, ~0ull, ~0ull},
        {~0ull, 0, ~0ull, ~0ull},  {0, ~0ull, ~0ull, ~0ull},
        {~0ull, ~0ull, ~0ull, ~0ull}};
    const __m256d sel =
        _mm256_load_pd(reinterpret_cast<const double*>(kLaneBits[mask]));
    return {_mm256_blendv_pd(a.v, b.v, sel)};
  }

  double lane(int k) const {
    alignas(kVecAlign) double tmp[kLanes];
    _mm256_store_pd(tmp, v);
    return tmp[k];
  }

  /// Horizontal min, associated as min(min(l0,l2), min(l1,l3)) — the scalar
  /// twin mirrors this exact tree.
  double hmin() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d m = _mm_min_pd(lo, hi);  // {min(l0,l2), min(l1,l3)}
    return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
  }
};

#else  // scalar twin

/// Four doubles, scalar twin of the AVX2 implementation: same lane ops, same
/// association order, same comparison/blend semantics — bit-identical.
struct Vec4d {
  double v[4];

  static constexpr std::uint32_t kLanes = 4;
  static const char* isa() { return "scalar"; }

  static Vec4d load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static Vec4d broadcast(double x) { return {{x, x, x, x}}; }
  static Vec4d gather(const double* base, const std::uint32_t* idx) {
    return {{base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]}};
  }
  void store(double* p) const {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
    p[3] = v[3];
  }

  friend Vec4d operator+(Vec4d a, Vec4d b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
  }
  friend Vec4d operator-(Vec4d a, Vec4d b) {
    return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
             a.v[3] - b.v[3]}};
  }
  friend Vec4d operator*(Vec4d a, Vec4d b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
  }

  static Vec4d mul_add(Vec4d a, Vec4d b, Vec4d c) { return a * b + c; }

  static Vec4d min(Vec4d a, Vec4d b) {
    Vec4d r;
    for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] < b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec4d max(Vec4d a, Vec4d b) {
    Vec4d r;
    for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec4d abs(Vec4d a) {
    Vec4d r;
    for (int k = 0; k < 4; ++k) {
      // Clear the sign bit like vandnpd does (spelled bitwise so the twin
      // cannot drift from the AVX2 semantics, NaN payloads included).
      r.v[k] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[k]) &
                                     ~(1ull << 63));
    }
    return r;
  }

  static int lt_mask(Vec4d a, Vec4d b) {
    int m = 0;
    for (int k = 0; k < 4; ++k) m |= static_cast<int>(a.v[k] < b.v[k]) << k;
    return m;
  }

  static Vec4d blend(Vec4d a, Vec4d b, int mask) {
    Vec4d r;
    for (int k = 0; k < 4; ++k) {
      r.v[k] = ((mask >> k) & 1) != 0 ? b.v[k] : a.v[k];
    }
    return r;
  }

  double lane(int k) const { return v[k]; }

  double hmin() const {
    const double m0 = v[0] < v[2] ? v[0] : v[2];
    const double m1 = v[1] < v[3] ? v[1] : v[3];
    return m0 < m1 ? m0 : m1;
  }
};

#endif  // CDST_SIMD_AVX2

}  // namespace cdst
