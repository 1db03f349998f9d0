// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher [13]; Section 2.2).
//
// A q-partitioned hash table whose cells hold (count, key XOR, checksum XOR,
// optional fixed-size value XOR). Supports insertion and deletion; after a
// mix of inserts (one party) and deletes (the other), the table holds the
// symmetric difference and can be decoded by peeling cells with count +-1
// whose checksum validates. Theorem 2.6: m cells decode cm keys whp.
//
// Engineering invariants (see sketch/README.md):
//   - Cell storage is a single struct-of-arrays arena (one allocation):
//     counts | key XORs | checksum XORs | value XORs, each a contiguous slab.
//   - Update/UpdateMany/CellsOf never allocate: cell indices live in a fixed
//     inline array, the checksum mask is hoisted into the constructor, and
//     values are raw byte spans.
//   - The cell map, fold loop and compact bitmap are the shared cell-table
//     core (sketch/cell_table.h); this class adds the XOR cell algebra, its
//     storage, the peel loop and the codec bodies.
//   - Decode peels in place on a reusable scratch pool (no per-call copy of
//     the Iblt object) with per-cell purity flags maintained incrementally.
//     The pool is thread_local (no instance owns scratch, so copies and
//     moves are the defaults; see sketch/cell_table.h): Decode/DecodeDiff
//     are const AND reentrant across threads, and warm repeat decodes on one
//     thread allocate nothing. A decode must not nest inside another decode
//     on the same thread. StrataEstimator::EstimateDiff inherits this —
//     concurrent sessions negotiate against one shared snapshot's
//     estimators.
//
// NOTE (multiset semantics): two XOR-inserts of the same key self-cancel.
// Callers reconciling multisets must salt keys with a canonical occurrence
// index (see setsets/sethash.h). The RIBLT (riblt.h) removes this limitation
// with sum cells, as required by Algorithm 1.
#ifndef RSR_SKETCH_IBLT_H_
#define RSR_SKETCH_IBLT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hashing/checksum.h"
#include "sketch/cell_table.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/wire.h"

namespace rsr {

struct IbltParams {
  /// Total number of cells m (rounded up to a multiple of num_hashes).
  size_t num_cells = 0;
  /// q: number of cell choices per key; the table is partitioned into q
  /// subtables so the choices are always distinct. 2 <= q <= kMaxHashes.
  int num_hashes = 4;
  /// Bytes of associated value XORed into each cell (0 = keys only).
  size_t value_size = 0;
  /// Wire width of the per-cell checksum in bytes (1..8). Narrower checksums
  /// shrink messages; the pure-cell false-positive rate is 2^-(8*bytes) per
  /// peel step, so 4 is plenty for difference sketches.
  int checksum_bytes = 8;
  /// Shared seed (public coins): both parties must use the same seed.
  uint64_t seed = 0;
};

/// One recovered entry: `count` is the net multiplicity (+1 = present only on
/// the inserting side, -1 = only on the deleting side).
struct IbltEntry {
  uint64_t key = 0;
  int64_t count = 0;
  std::vector<uint8_t> value;
};

struct IbltDecodeResult {
  std::vector<IbltEntry> entries;
  /// True iff the table fully drained (all cells, including value slabs,
  /// returned to zero).
  bool complete = false;
};

class Iblt {
 public:
  /// Upper bound on q (see sketch_internal::kMaxHashes).
  static constexpr int kMaxHashes = sketch_internal::kMaxHashes;

  explicit Iblt(const IbltParams& params);

  void Insert(uint64_t key) { Update(key, nullptr, +1); }
  void Delete(uint64_t key) { Update(key, nullptr, -1); }
  void InsertKv(uint64_t key, const std::vector<uint8_t>& value) {
    RSR_CHECK_EQ(value.size(), params_.value_size);
    // data() of an empty vector may be non-null; normalize for Update's
    // (value != nullptr) == (value_size > 0) contract.
    Update(key, value.empty() ? nullptr : value.data(), +1);
  }
  void DeleteKv(uint64_t key, const std::vector<uint8_t>& value) {
    RSR_CHECK_EQ(value.size(), params_.value_size);
    Update(key, value.empty() ? nullptr : value.data(), -1);
  }

  /// Hot path: applies `direction` copies of (key, value) to the key's q
  /// cells. `value` must point at params().value_size readable bytes and may
  /// be nullptr iff value_size == 0. Never allocates. Defined inline below.
  void Update(uint64_t key, const uint8_t* value, int direction);

  /// Batched hot path for whole buckets of value-less keys (protocol layers
  /// insert entire salted-key vectors at once). Never allocates.
  void UpdateMany(std::span<const uint64_t> keys, int direction);
  void InsertMany(std::span<const uint64_t> keys) { UpdateMany(keys, +1); }
  void DeleteMany(std::span<const uint64_t> keys) { UpdateMany(keys, -1); }

  /// Peels the table (on a pooled scratch copy of the cell arena; the sketch
  /// itself stays intact). Returns entries with net counts +-1; the result is
  /// complete iff the residual table is empty. An incomplete decode still
  /// reports everything that peeled (useful for strata estimation).
  IbltDecodeResult Decode() const;

  /// Peels (this - other) without materializing the difference table.
  /// Requires identical parameters and seed.
  Result<IbltDecodeResult> DecodeDiff(const Iblt& other) const;

  const IbltParams& params() const { return params_; }
  size_t num_cells() const { return num_cells_; }

  /// Effective checksum mask. Locally-built tables carry the full
  /// checksum_bytes-wide mask; tables parsed from a compact stream carry
  /// the narrower truncated mask, and DecodeDiff works under the mask
  /// intersection — XOR commutes with masking, so a narrowed table is
  /// indistinguishable from one built narrow.
  uint64_t checksum_mask() const { return checksum_mask_; }

  /// Exact wire size accounting. kClassic is the historical byte layout;
  /// kCompact bit-packs cells (frame-of-reference counts, width-packed key
  /// XORs, checksums truncated to 16 + bit_width(cells), sparse bitmap mode
  /// with pure-cell checksum elision). See docs/WIRE.md. The default codec
  /// follows RSR_WIRE_CODEC so test suites re-run under either codec.
  void WriteTo(ByteWriter* w, WireCodec codec = DefaultWireCodec()) const;
  static Result<Iblt> ReadFrom(ByteReader* r, const IbltParams& params,
                               WireCodec codec = DefaultWireCodec());

 private:
  /// Update without the value/value_size contract check; UpdateMany hoists
  /// the check out of its per-key loop.
  void UpdateUnchecked(uint64_t key, const uint8_t* value, int direction);

  Status CheckCompatible(const Iblt& other) const;

  // Struct-of-arrays views into the arena (offsets in 64-bit words). Accessor
  // methods recompute pointers from arena_.data(), so default copy/move stay
  // correct.
  int64_t* Counts() { return reinterpret_cast<int64_t*>(arena_.data()); }
  const int64_t* Counts() const {
    return reinterpret_cast<const int64_t*>(arena_.data());
  }
  uint64_t* KeyXors() { return arena_.data() + num_cells_; }
  const uint64_t* KeyXors() const { return arena_.data() + num_cells_; }
  uint64_t* ChecksumXors() { return arena_.data() + 2 * num_cells_; }
  const uint64_t* ChecksumXors() const {
    return arena_.data() + 2 * num_cells_;
  }
  uint8_t* ValueXors() {
    return reinterpret_cast<uint8_t*>(arena_.data() + 3 * num_cells_);
  }
  const uint8_t* ValueXors() const {
    return reinterpret_cast<const uint8_t*>(arena_.data() + 3 * num_cells_);
  }

  void PeelInto(const Iblt* subtrahend, IbltDecodeResult* result) const;

  IbltParams params_;
  size_t num_cells_ = 0;
  sketch_internal::CellMap map_;
  uint64_t checksum_mask_ = 0;  // hoisted from the per-update path
  uint64_t checksum_salt_ = 0;  // pre-mixed seed for key checksums
  /// Single allocation: 3*num_cells_ words of counts/keys/checksums followed
  /// by ceil(num_cells_*value_size/8) words of value bytes.
  std::vector<uint64_t> arena_;
};

// ---- Hot path (inline) ------------------------------------------------------

// RSR_ZERO_ALLOC: the sketch hot path pinned by
// SketchHotPathTest.IbltUpdateDoesNotAllocate.
inline void Iblt::Update(uint64_t key, const uint8_t* value, int direction) {
  RSR_CHECK((value != nullptr) == (params_.value_size > 0));
  UpdateUnchecked(key, value, direction);
}

// RSR_ZERO_ALLOC: same contract as Update (which inlines into this).
inline void Iblt::UpdateUnchecked(uint64_t key, const uint8_t* value,
                                  int direction) {
  uint64_t checksum = ChecksumWithSalt(key, checksum_salt_) & checksum_mask_;
  // Cell derivation is fused into the update loop (same index function as
  // CellMap::CellsOf) so each cell's memory traffic overlaps the next
  // polynomial evaluation. All member state is hoisted into locals: the slab
  // stores go through uint64_t pointers that the compiler must otherwise
  // assume alias the members.
  const uint64_t xr = Mod61(key);
  const uint64_t x2 = sketch_internal::SquareMod61(xr);
  const size_t sub = map_.cells_per_subtable();
  const FastDiv61 mod = map_.subtable_mod();
  const size_t q = map_.num_hashes();
  // __restrict: the slabs never alias the coefficient array or each other,
  // so the compiler may hoist coefficient loads past the slab stores.
  int64_t* __restrict counts = Counts();
  uint64_t* __restrict keys = KeyXors();
  uint64_t* __restrict checksums = ChecksumXors();
  uint8_t* __restrict values = ValueXors();
  const size_t value_size = params_.value_size;
  const uint64_t* __restrict c = map_.coeffs();
  size_t base = 0;
  for (size_t j = 0; j < q;
       ++j, c += sketch_internal::CellMap::kIndexIndependence, base += sub) {
    size_t cell = sketch_internal::SubtableCell(c, xr, x2, mod, base);
    counts[cell] += direction;
    keys[cell] ^= key;
    checksums[cell] ^= checksum;
    if (value_size > 0) {
      uint8_t* dst = values + cell * value_size;
      for (size_t i = 0; i < value_size; ++i) dst[i] ^= value[i];
    }
  }
}

}  // namespace rsr

#endif  // RSR_SKETCH_IBLT_H_
