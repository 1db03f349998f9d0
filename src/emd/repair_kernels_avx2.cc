// AVX2 kernels of Algorithm 1's repair (see repair_kernels.h).
//
// Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt). One 64-bit
// lane is one column, and every lane performs the scalar loop's operations
// for that column in the scalar order; only independent columns run side by
// side.
//
//   distances: per pair, vpsubq takes the int64 difference, which is
//     converted to double exactly as cvtsi2sd converts it (Int64ToDouble
//     below), squared and added in coordinate order, then vsqrtpd. l1 sums
//     the wrapping |difference| in uint64 lanes and Hamming counts unequal
//     lanes, each converted once at the end.
//   Hungarian scan: per column, the reference's reduced cost, minv and way
//     updates; each lane keeps its own minimum and the lowest column that
//     reached it, and the lanes are reduced by (value, lowest column), so
//     delta is the exact double the reference picks (+0.0 and -0.0 compare
//     equal, and the lowest column's bits win).
//
// The functions here take raw pointers and call nothing outside this file,
// so no inline function shared with the portable translation units is ever
// instantiated with AVX2 code generation.
#include "emd/repair_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace rsr {
namespace emd_internal {

const bool kAvx2RepairKernelsCompiled = true;

namespace {

/// The int64 lanes converted to the nearest double, exactly as cvtsi2sd
/// rounds them, for every int64. The value is split as hi * 2^48 + lo with
/// lo the low 48 bits: both halves become exact doubles through magic
/// constants (3 * 2^67 for the signed high part, 2^52 for the low part), the
/// constant is subtracted exactly, and the final add is the one rounding.
inline __m256d Int64ToDouble(__m256i x) {
  // Bits of 3 * 2^67 and 2^52.
  const __m256i magic_high = _mm256_set1_epi64x(0x4438000000000000LL);
  const __m256i magic_low = _mm256_set1_epi64x(0x4330000000000000LL);
  // hi = x >> 48 (arithmetic) lands in the upper dword as hi * 2^32; added
  // to the bits of 3 * 2^67 (ulp 2^16) that is the double 3 * 2^67 + hi * 2^48.
  const __m256i hi = _mm256_blend_epi32(_mm256_srai_epi32(x, 16),
                                        _mm256_setzero_si256(), 0x55);
  const __m256d hi_d = _mm256_castsi256_pd(_mm256_add_epi64(hi, magic_high));
  // lo in the mantissa of 2^52: the double 2^52 + lo.
  const __m256d lo_d =
      _mm256_castsi256_pd(_mm256_blend_epi16(x, magic_low, 0x88));
  // (3 * 2^67 + hi * 2^48) - (3 * 2^67 + 2^52) = hi * 2^48 - 2^52, exact.
  const __m256d hi_exact =
      _mm256_sub_pd(hi_d, _mm256_set1_pd(442726361368656609280.0));
  return _mm256_add_pd(hi_exact, lo_d);
}

struct L2Lanes {
  using Acc = __m256d;
  static Acc Start(size_t) { return _mm256_setzero_pd(); }
  static Acc Add(Acc sum, __m256i x, __m256i y) {
    const __m256d diff = Int64ToDouble(_mm256_sub_epi64(x, y));
    return _mm256_add_pd(sum, _mm256_mul_pd(diff, diff));
  }
  static __m256d Finish(Acc sum) { return _mm256_sqrt_pd(sum); }
};

struct L1Lanes {
  using Acc = __m256i;
  static Acc Start(size_t) { return _mm256_setzero_si256(); }
  static Acc Add(Acc sum, __m256i x, __m256i y) {
    const __m256i diff = _mm256_sub_epi64(x, y);
    const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), diff);
    const __m256i abs =
        _mm256_sub_epi64(_mm256_xor_si256(diff, sign), sign);
    return _mm256_add_epi64(sum, abs);
  }
  static __m256d Finish(Acc sum) { return Int64ToDouble(sum); }
};

/// Starts at dim and counts each equal coordinate as -1 (cmpeq's all-ones).
struct HammingLanes {
  using Acc = __m256i;
  static Acc Start(size_t dim) {
    return _mm256_set1_epi64x(static_cast<int64_t>(dim));
  }
  static Acc Add(Acc sum, __m256i x, __m256i y) {
    return _mm256_add_epi64(sum, _mm256_cmpeq_epi64(x, y));
  }
  static __m256d Finish(Acc sum) { return Int64ToDouble(sum); }
};

/// One row of distances against DistanceRows' transposed blocks: for each
/// block of 8 columns, every coordinate of x is broadcast and run against
/// that coordinate of the 8 columns, in two 4-lane accumulators.
template <typename Lanes>
size_t FillRow(const Coord* x, const Coord* blocks, size_t cols, size_t dim,
               double* out) {
  const size_t full = cols - cols % kDistanceBlockCols;
  for (size_t col = 0; col < full; col += kDistanceBlockCols) {
    const Coord* block = blocks + col * dim;
    typename Lanes::Acc lo = Lanes::Start(dim);
    typename Lanes::Acc hi = Lanes::Start(dim);
    for (size_t c = 0; c < dim; ++c) {
      const __m256i xc = _mm256_set1_epi64x(x[c]);
      const Coord* yc = block + c * kDistanceBlockCols;
      lo = Lanes::Add(lo, xc,
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yc)));
      hi = Lanes::Add(
          hi, xc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yc + 4)));
    }
    _mm256_storeu_pd(out + col, Lanes::Finish(lo));
    _mm256_storeu_pd(out + col + 4, Lanes::Finish(hi));
  }
  return full;
}

/// Folds 4 columns starting at j into the lane minimum (*lane_min,
/// *lane_col). First: minv is not read (it reads as +inf).
template <bool kFirst>
inline void ScanQuad(const HungarianScan& s, size_t j, __m256d vu,
                     __m256d vpending, __m256i vj0, __m256i vj,
                     __m256d* lane_min, __m256i* lane_col) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d used = _mm256_castsi256_pd(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.used + j)));
  const __m256d cur = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_loadu_pd(s.cost_row + j - 1), vu),
      _mm256_loadu_pd(s.v + j));
  __m256d m = kFirst ? inf : _mm256_sub_pd(_mm256_loadu_pd(s.minv + j),
                                           vpending);
  // cur < minv[j], for columns outside the tree only.
  const __m256d lower =
      _mm256_andnot_pd(used, _mm256_cmp_pd(cur, m, _CMP_LT_OQ));
  m = _mm256_blendv_pd(m, cur, lower);
  // A tree column's minv is never read again in this row: store it as is.
  _mm256_storeu_pd(s.minv + j, m);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(s.way + j),
                         _mm256_castpd_si256(lower), vj0);
  // Tree columns become NaN (all bits set), which no comparison picks.
  const __m256d candidate = _mm256_or_pd(m, used);
  const __m256d better = _mm256_cmp_pd(candidate, *lane_min, _CMP_LT_OQ);
  // min_pd(a, b) is a < b ? a : b: the strict comparison of the reference.
  *lane_min = _mm256_min_pd(candidate, *lane_min);
  *lane_col = _mm256_blendv_epi8(*lane_col, vj, _mm256_castpd_si256(better));
}

template <bool kFirst>
size_t ScanColumns(const HungarianScan& s, size_t end, ScanMin* best) {
  const __m256d vu = _mm256_set1_pd(s.u_i0);
  const __m256d vpending = _mm256_set1_pd(s.pending);
  const __m256i vj0 = _mm256_set1_epi64x(static_cast<int64_t>(s.j0));
  const __m256i four = _mm256_set1_epi64x(4);
  const __m256i eight = _mm256_set1_epi64x(8);
  // Two lane groups: each minimum is a chain of dependent vminpd, so two
  // chains let one group's compare overlap the other's.
  __m256d min_a = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d min_b = min_a;
  __m256i col_a = _mm256_setzero_si256();
  __m256i col_b = col_a;
  __m256i vj_a = _mm256_set_epi64x(4, 3, 2, 1);
  __m256i vj_b = _mm256_add_epi64(vj_a, four);
  size_t j = 1;
  for (; j + 8 <= end; j += 8) {
    ScanQuad<kFirst>(s, j, vu, vpending, vj0, vj_a, &min_a, &col_a);
    ScanQuad<kFirst>(s, j + 4, vu, vpending, vj0, vj_b, &min_b, &col_b);
    vj_a = _mm256_add_epi64(vj_a, eight);
    vj_b = _mm256_add_epi64(vj_b, eight);
  }
  if (j + 4 <= end) {
    ScanQuad<kFirst>(s, j, vu, vpending, vj0, vj_a, &min_a, &col_a);
    j += 4;
  }
  alignas(32) double mins[8];
  alignas(32) int64_t cols[8];
  _mm256_store_pd(mins, min_a);
  _mm256_store_pd(mins + 4, min_b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cols), col_a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cols + 4), col_b);
  ScanMin out{std::numeric_limits<double>::infinity(), 0};
  for (size_t t = 0; t < 8; ++t) {
    const size_t col = static_cast<size_t>(cols[t]);
    if (mins[t] < out.delta || (mins[t] == out.delta && col < out.j1)) {
      out.delta = mins[t];
      out.j1 = col;
    }
  }
  *best = out;
  return j;
}

}  // namespace

size_t FillDistanceRowAvx2(MetricKind kind, const Coord* x,
                           const Coord* blocks, size_t cols, size_t dim,
                           double* out) {
  switch (kind) {
    case MetricKind::kHamming:
      return FillRow<HammingLanes>(x, blocks, cols, dim, out);
    case MetricKind::kL1:
      return FillRow<L1Lanes>(x, blocks, cols, dim, out);
    case MetricKind::kL2:
      return FillRow<L2Lanes>(x, blocks, cols, dim, out);
  }
  return 0;
}

size_t ScanColumnsAvx2(const HungarianScan& scan, size_t end, ScanMin* best) {
  return scan.first ? ScanColumns<true>(scan, end, best)
                    : ScanColumns<false>(scan, end, best);
}

}  // namespace emd_internal
}  // namespace rsr

#else  // !defined(__AVX2__)

// Built without AVX2 code generation: the entry points cover no columns and
// the scalar loops do all the work.
namespace rsr {
namespace emd_internal {

const bool kAvx2RepairKernelsCompiled = false;

size_t FillDistanceRowAvx2(MetricKind, const Coord*, const Coord*, size_t,
                           size_t, double*) {
  return 0;
}

size_t ScanColumnsAvx2(const HungarianScan&, size_t, ScanMin*) { return 1; }

}  // namespace emd_internal
}  // namespace rsr

#endif  // defined(__AVX2__)
