// The cell-table core shared by Iblt (XOR cells) and Riblt (sum cells).
//
// Section 2.2 defines the RIBLT as the classic IBLT with a different cell
// algebra and peel rule; the rest of the table is the same mechanism, and it
// lives here once:
//   - CellMap: the q-partitioned geometry, the seeded draw of the q index
//     polynomials, and CellsOf. Both tables (and both peers) must map a key
//     to the same cells bit for bit, or wire compatibility and seeded
//     decodes silently break.
//   - FoldCells / FoldSlab: fold-down projection onto a
//     divisor-compatible smaller table.
//   - CellFlags / WriteCellBitmap / ReadCellBitmap: the compact codec's
//     sparse-mode inclusion bitmap.
// Storage, peel loops and codec bodies stay in iblt.cc / riblt.cc: they are
// where the cell algebra differs.
//
// Scratch model: no table instance owns scratch, so tables copy and move by
// default, decodes are const and reentrant across threads, and warm repeat
// calls allocate nothing. The pools are thread_local: the bitmap pool here,
// the peel pools in iblt.cc and riblt.cc. Two rules follow:
//   - A pooled operation must not nest inside another of the same kind on
//     the same thread (e.g. an Iblt decode started from inside one).
//   - Code running inside a ParallelShards worker must not name a
//     thread_local pool filled on the calling thread: on a worker thread the
//     name resolves to that worker's own, empty pool.
#ifndef RSR_SKETCH_CELL_TABLE_H_
#define RSR_SKETCH_CELL_TABLE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "hashing/pairwise.h"
#include "util/fastdiv.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rsr {
namespace sketch_internal {

/// Upper bound on q. One key's cell indices fit in a fixed inline array, so
/// deriving them never allocates.
inline constexpr int kMaxHashes = 8;

// Shared-power evaluation: x and x^2 mod p are computed once per key, and
// each degree-2 polynomial costs two multiplies and one fold:
//   c2*x^2 + c1*x + c0 < 2^123, within Mod61's documented input range.
// Value-identical to Horner evaluation of each polynomial.

/// x^2 mod p for the shared-power scheme; x must already be reduced.
inline uint64_t SquareMod61(uint64_t x) {
  return Mod61(static_cast<unsigned __int128>(x) * x);
}

/// Cell `base + (c2*x^2 + c1*x + c0 mod p) mod m` for one subtable, where
/// `mod` divides by m and x, x^2 are the key's reduced powers. This is the
/// one index function: CellMap::CellsOf and the fused Iblt update loop both
/// call it.
inline size_t SubtableCell(const uint64_t* c, uint64_t x, uint64_t x2,
                           const FastDiv61& mod, size_t base) {
  const uint64_t h = Mod61(static_cast<unsigned __int128>(c[2]) * x2 +
                           static_cast<unsigned __int128>(c[1]) * x + c[0]);
  return base + static_cast<size_t>(mod.Mod(h));
}

/// The q-partitioned cell map: subtable j holds cells
/// [j*m, (j+1)*m), and a key lands in subtable j at j*m + h_j(key) mod m.
/// The polynomials h_j depend on (seed, salt) only, never on the table size,
/// which is what makes fold-down projection byte-exact.
class CellMap {
 public:
  /// Degree + 1 of the index polynomials (3-independent hashing suffices
  /// for peeling in practice). Coefficients live in one flat inline array.
  static constexpr int kIndexIndependence = 3;

  /// Rounds num_cells up to a multiple of num_hashes (at least one cell per
  /// subtable) and draws the q polynomials from Rng(seed ^ salt). Each table
  /// type passes its own fixed salt; changing one moves every cell.
  CellMap(size_t num_cells, int num_hashes, uint64_t seed, uint64_t salt);

  size_t num_hashes() const { return q_; }
  size_t cells_per_subtable() const { return subtable_mod_.divisor(); }
  size_t num_cells() const { return q_ * cells_per_subtable(); }
  const FastDiv61& subtable_mod() const { return subtable_mod_; }
  /// coeffs()[j*kIndexIndependence + i] multiplies x^i in h_j.
  const uint64_t* coeffs() const { return coeffs_.data(); }

  /// Fills out[0..num_hashes) with the key's (distinct-subtable) cells.
  void CellsOf(uint64_t key, size_t* out) const {
    const uint64_t xr = Mod61(key);
    const uint64_t x2 = SquareMod61(xr);
    // Locals, not members, in the loop: the size_t stores through `out`
    // could otherwise alias q_ and the divisor, forcing reloads.
    const size_t q = q_;
    const FastDiv61 mod = subtable_mod_;
    const size_t sub = mod.divisor();
    const uint64_t* c = coeffs_.data();
    for (size_t j = 0; j < q; ++j, c += kIndexIndependence) {
      out[j] = SubtableCell(c, xr, x2, mod, j * sub);
    }
  }

 private:
  size_t q_ = 0;
  FastDiv61 subtable_mod_;  // division-free h % cells_per_subtable
  std::array<uint64_t, kIndexIndependence * kMaxHashes> coeffs_{};
};

// ---- Fold-down projection ---------------------------------------------------

/// The FoldInto skeleton: rejects a parameter mismatch (`params_match`
/// false, reported with `mismatch_message`) and a destination whose
/// cells-per-subtable m' does not divide the source's m. Then, subtable by
/// subtable, source block r (cells [r*m', (r+1)*m')) folds onto the
/// destination subtable through fold(src_off, dst_off, m', first): copy when
/// `first` (r == 0), accumulate otherwise. Cell r*m' + i lands on cell i ==
/// (r*m' + i) mod m', so each block is slab-contiguous, with no modulo in
/// the loop. Both cell algebras are associative and commutative, so the
/// result equals a cold build at the destination size.
template <typename FoldBlockFn>
Status FoldCells(const CellMap& src, const CellMap& dst, bool params_match,
                 const char* mismatch_message, FoldBlockFn&& fold) {
  if (!params_match) return Status::InvalidArgument(mismatch_message);
  const size_t src_sub = src.cells_per_subtable();
  const size_t dst_sub = dst.cells_per_subtable();
  if (dst_sub == 0 || src_sub % dst_sub != 0) {
    return Status::InvalidArgument(
        "FoldInto target cells-per-subtable must divide the source's");
  }
  const size_t blocks = src_sub / dst_sub;
  for (size_t j = 0; j < src.num_hashes(); ++j) {
    for (size_t r = 0; r < blocks; ++r) {
      fold(j * src_sub + r * dst_sub, j * dst_sub, dst_sub, r == 0);
    }
  }
  return Status::OK();
}

/// One slab of a fold block: dst[i] = src[i] when `first`, else
/// dst[i] = op(dst[i], src[i]).
template <typename T, typename Op>
inline void FoldSlab(const T* src, T* dst, size_t n, bool first, Op op) {
  if (first) {
    std::copy_n(src, n, dst);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<T>(op(dst[i], src[i]));
}

// ---- Compact codec ----------------------------------------------------------

/// The low `bits` bits of T set (all of them when bits >= T's width): the
/// residue mask of a compact field shipped at that width.
template <typename T>
constexpr T LowBits(int bits) {
  return bits >= static_cast<int>(8 * sizeof(T)) ? ~T{0} : (T{1} << bits) - 1;
}

/// Running [lo, hi] of one compact field over a set of cells: lo ships as
/// the frame-of-reference base and each cell as its offset from lo. An
/// empty range stays [0, 0].
template <typename T>
struct FieldRange {
  T lo{};
  T hi{};
  bool empty = true;
  void Add(T v) {
    lo = empty ? v : std::min(lo, v);
    hi = empty ? v : std::max(hi, v);
    empty = false;
  }
};

/// Wire width of a signed 64-bit field's offsets (wrapping spread hi - lo).
inline int SpreadBits(const FieldRange<int64_t>& r) {
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(r.hi) -
                                         static_cast<uint64_t>(r.lo)));
}

/// The calling thread's m per-cell inclusion flags, zeroed. Compact writers
/// mark the cells they ship, then WriteCellBitmap.
uint8_t* CellFlags(size_t m);

/// Writes flags[0..m) as ceil(m/8) bytes, cell i at bit i%8 of byte i/8.
void WriteCellBitmap(ByteWriter* w, const uint8_t* flags, size_t m);

/// Returns the calling thread's m inclusion flags: parsed from the bitmap
/// when `sparse`, all set otherwise. Nonzero padding past cell m poisons the
/// reader (two distinct streams would decode identically, which breaks
/// canonical round trips); callers check r->status() after.
const uint8_t* ReadCellBitmap(ByteReader* r, size_t m, bool sparse);

}  // namespace sketch_internal
}  // namespace rsr

#endif  // RSR_SKETCH_CELL_TABLE_H_
