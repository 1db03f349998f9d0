#include "sketch/riblt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "hashing/checksum.h"

namespace rsr {

namespace {

// RIBLT checksums are 32-bit: checksum *sums* of up to 2^31 items still fit
// a 64-bit word, which keeps the wire format small, and 2^-32 per-peel
// false-positive probability is far below the protocol's failure budget.
// Takes the pre-mixed ChecksumSalt so hot loops skip one Mix64 per key.
constexpr uint64_t kCellChecksumMask = 0xffffffffULL;
inline uint64_t CellChecksum(uint64_t key, uint64_t mixed_salt) {
  return ChecksumWithSalt(key, mixed_salt) & kCellChecksumMask;
}

using U128 = unsigned __int128;

/// If the cell's contents are C copies of a single key from a single side,
/// fills |C|, key, side and returns true. Operates on raw slabs so the
/// peeler can run on scratch buffers without copying the table. Checksum
/// comparisons run under `mask` — tables parsed from a compact stream only
/// know their checksum sums mod the wire width, and truncation commutes
/// with the wrapping sums, so comparing residues is exactly as sound as the
/// narrower width's false-positive rate.
inline bool CellIsPure(const int64_t* counts, const U128* key_sums,
                       const U128* checksum_sums, uint64_t mixed_salt,
                       U128 mask, size_t cell, int64_t* copies, uint64_t* key,
                       int* side) {
  int64_t c = counts[cell];
  if (c == 0) return false;
  int s = c > 0 ? +1 : -1;
  // Normalize the wrapped sums to the inserting direction.
  U128 key_sum = s > 0 ? key_sums[cell] : static_cast<U128>(0) - key_sums[cell];
  U128 checksum_sum = s > 0 ? checksum_sums[cell]
                            : static_cast<U128>(0) - checksum_sums[cell];
  if (c == 1 || c == -1) {
    // |count| == 1 dominates every peel (each decoded pair is visited q
    // times at magnitude 1): purity degenerates to exact-match checks, no
    // 128-bit division. Identical accept/reject to the general path with
    // magnitude = 1.
    if (key_sum > static_cast<U128>(~uint64_t{0})) return false;
    uint64_t k = static_cast<uint64_t>(key_sum);
    if (((checksum_sum - static_cast<U128>(CellChecksum(k, mixed_salt))) &
         mask) != 0) {
      return false;
    }
    *copies = 1;
    *key = k;
    *side = s;
    return true;
  }
  U128 magnitude = static_cast<U128>(c > 0 ? c : -c);
  if (key_sum % magnitude != 0) return false;
  U128 candidate = key_sum / magnitude;
  if (candidate > ~uint64_t{0}) return false;
  uint64_t k = static_cast<uint64_t>(candidate);
  // checksum(K/C) == S/C, equivalently S == C * checksum(K/C) (mod mask+1).
  if (((checksum_sum -
        magnitude * static_cast<U128>(CellChecksum(k, mixed_salt))) &
       mask) != 0) {
    return false;
  }
  *copies = c > 0 ? c : -c;
  *key = k;
  *side = s;
  return true;
}

inline int BitWidth128(U128 v) {
  uint64_t hi = static_cast<uint64_t>(v >> 64);
  if (hi != 0) return 64 + static_cast<int>(std::bit_width(hi));
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(v)));
}

/// Exact encoded size of a LEB128 varint over 128 bits (mirrors
/// ByteWriter::PutVarint128).
inline size_t Varint128Size(U128 v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline size_t SignedVarint64Size(int64_t v) {
  return Varint128Size((static_cast<uint64_t>(v) << 1) ^
                       static_cast<uint64_t>(v >> 63));  // zigzag
}

}  // namespace

Riblt::Riblt(const RibltParams& params)
    : params_(params),
      map_(params.num_cells, params.num_hashes, params.seed,
           0x1ab17c0ffeeULL) {
  RSR_CHECK(params.num_hashes >= 3);  // Algorithm 1 requires q >= 3.
  RSR_CHECK(params.dim > 0);
  RSR_CHECK(params.delta >= 1);
  const size_t total = map_.num_cells();
  params_.num_cells = total;
  checksum_salt_ = ChecksumSalt(params_.seed);
  counts_.assign(total, 0);
  key_sums_.assign(total, 0);
  checksum_sums_.assign(total, 0);
  value_sums_.assign(total * params_.dim, 0);
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.RibltUpdateDoesNotAllocate.
void Riblt::Update(uint64_t key, const Coord* value, int direction) {
  U128 key_term = key;
  U128 checksum_term = CellChecksum(key, checksum_salt_);
  size_t cells[kMaxHashes];
  map_.CellsOf(key, cells);
  const size_t q = map_.num_hashes();
  const size_t dim = params_.dim;
  for (size_t j = 0; j < q; ++j) {
    size_t cell = cells[j];
    counts_[cell] += direction;
    if (direction > 0) {
      key_sums_[cell] += key_term;
      checksum_sums_[cell] += checksum_term;
    } else {
      key_sums_[cell] -= key_term;  // wraps mod 2^128; consistent throughout
      checksum_sums_[cell] -= checksum_term;
    }
    int64_t* vs = &value_sums_[cell * dim];
    for (size_t i = 0; i < dim; ++i) {
      vs[i] += direction > 0 ? value[i] : -value[i];
    }
  }
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.RibltUpdateManyDoesNotAllocate.
void Riblt::UpdateMany(std::span<const uint64_t> keys, const PointStore& values,
                       int direction) {
  RSR_CHECK_EQ(keys.size(), values.size());
  if (keys.empty()) return;
  RSR_CHECK_EQ(values.dim(), params_.dim);
  const Coord* rows = values.coord_data();
  const size_t dim = params_.dim;
  for (size_t i = 0; i < keys.size(); ++i) {
    Update(keys[i], rows + i * dim, direction);
  }
}

Status Riblt::AddScaled(const Riblt& other, int64_t factor) {
  if (other.params_.num_cells != params_.num_cells ||
      other.params_.num_hashes != params_.num_hashes ||
      other.params_.dim != params_.dim ||
      other.params_.delta != params_.delta ||
      other.params_.seed != params_.seed) {
    return Status::InvalidArgument("RIBLT parameter mismatch in AddScaled");
  }
  // 128-bit sums wrap consistently under negative factors. The combined
  // table's checksum comparisons are only sound at the narrower of the two
  // operands' widths, so the masks intersect.
  checksum_mask_ &= other.checksum_mask_;
  value_mask_ &= other.value_mask_;
  U128 factor128 = factor >= 0
                       ? static_cast<U128>(factor)
                       : static_cast<U128>(0) - static_cast<U128>(-factor);
  for (size_t c = 0; c < counts_.size(); ++c) {
    counts_[c] += factor * other.counts_[c];
    key_sums_[c] += factor128 * other.key_sums_[c];
    checksum_sums_[c] += factor128 * other.checksum_sums_[c];
  }
  for (size_t i = 0; i < value_sums_.size(); ++i) {
    value_sums_[i] += factor * other.value_sums_[i];
  }
  return Status::OK();
}

// RSR_ZERO_ALLOC: warm folds reuse dst's slabs
// (RibltFoldTest.WarmFoldIntoPerformsZeroAllocations).
Status Riblt::FoldInto(Riblt* dst) const {
  const bool params_match = dst->params_.num_hashes == params_.num_hashes &&
                            dst->params_.dim == params_.dim &&
                            dst->params_.delta == params_.delta &&
                            dst->params_.seed == params_.seed;
  // Every slab adds (int64 adds, wrapping 128-bit adds).
  const size_t dim = params_.dim;
  const std::plus<> add;
  RSR_RETURN_NOT_OK(sketch_internal::FoldCells(
      map_, dst->map_, params_match, "RIBLT parameter mismatch in FoldInto",
      [&](size_t src_off, size_t dst_off, size_t len, bool first) {
        using sketch_internal::FoldSlab;
        FoldSlab(&counts_[src_off], &dst->counts_[dst_off], len, first, add);
        FoldSlab(&key_sums_[src_off], &dst->key_sums_[dst_off], len, first,
                 add);
        FoldSlab(&checksum_sums_[src_off], &dst->checksum_sums_[dst_off], len,
                 first, add);
        FoldSlab(&value_sums_[src_off * dim], &dst->value_sums_[dst_off * dim],
                 len * dim, first, add);
      }));
  dst->checksum_mask_ = checksum_mask_;
  dst->value_mask_ = value_mask_;
  return Status::OK();
}

Status Riblt::DecodeInto(size_t max_pairs, size_t max_per_side, Rng* rng,
                         RibltDecodeResult* out) const {
  const size_t total = counts_.size();
  const size_t dim = params_.dim;

  // Reset the result in place. A reused result keeps its arena and key
  // capacity, so re-decoding appends into existing storage; only a dimension
  // change (or the very first use) rebuilds the stores.
  if (out->inserted.dim() != dim) out->inserted = PointStore(dim);
  if (out->deleted.dim() != dim) out->deleted = PointStore(dim);
  out->inserted.Clear();
  out->deleted.Clear();
  out->inserted_keys.clear();
  out->deleted_keys.clear();
  out->complete = false;
  out->peel_steps = 0;

  // Peel on this thread's pooled slab copies: once the pool is warm these
  // are memcpys into existing capacity, not allocations.
  struct DecodeScratch {
    std::vector<int64_t> counts;
    std::vector<U128> key_sums, checksum_sums;
    std::vector<int64_t> value_sums;
    std::vector<uint32_t> queue;  // FIFO via head index
    std::vector<uint8_t> queued;
    std::vector<double> average;       // dim-sized per-peel workspace
    std::vector<int64_t> cell_values;  // dim-sized per-peel workspace
  };
  static thread_local DecodeScratch scratch;
  scratch.counts.assign(counts_.begin(), counts_.end());
  scratch.key_sums.assign(key_sums_.begin(), key_sums_.end());
  scratch.checksum_sums.assign(checksum_sums_.begin(), checksum_sums_.end());
  scratch.value_sums.assign(value_sums_.begin(), value_sums_.end());
  int64_t* counts = scratch.counts.data();
  U128* key_sums = scratch.key_sums.data();
  U128* checksum_sums = scratch.checksum_sums.data();
  int64_t* value_sums = scratch.value_sums.data();

  // FIFO breadth-first order (RIBLT requirement 1): cells become eligible in
  // the order they turn pure, and are processed first-come first-served.
  scratch.queue.clear();
  scratch.queued.assign(total, 0);
  uint8_t* queued = scratch.queued.data();
  size_t head = 0;
  int64_t copies;
  uint64_t key;
  int side;
  const U128 mask = checksum_mask_;
  for (size_t c = 0; c < total; ++c) {
    if (CellIsPure(counts, key_sums, checksum_sums, checksum_salt_, mask, c,
                   &copies, &key, &side)) {
      scratch.queue.push_back(static_cast<uint32_t>(c));
      queued[c] = 1;
    }
  }

  scratch.average.resize(dim);
  scratch.cell_values.resize(dim);
  double* average = scratch.average.data();
  int64_t* cell_values = scratch.cell_values.data();
  size_t cells[kMaxHashes];
  const size_t q = static_cast<size_t>(params_.num_hashes);

  size_t total_pairs = 0;
  while (head < scratch.queue.size()) {
    size_t cell = scratch.queue[head++];
    queued[cell] = 0;
    if (!CellIsPure(counts, key_sums, checksum_sums, checksum_salt_, mask,
                    cell, &copies, &key, &side)) {
      continue;
    }
    ++out->peel_steps;

    total_pairs += static_cast<size_t>(copies);
    if (total_pairs > max_pairs) {
      return Status::DecodeFailure("RIBLT decoded more than max_pairs pairs");
    }

    // Extract |C| pairs. Average value = value_sum / count (signed), then
    // clamp into [0, Delta] and randomized-round each fractional coordinate
    // independently per copy (RIBLT requirement 5). Under a narrowed value
    // mask (compact mod-2^Wv streams) the slab holds residues; a centered
    // lift recovers the true small sum — exact whenever |sum| < 2^(Wv-1),
    // which the Wv = bit_width(delta)+4 wire width guarantees for any cell
    // whose diff multiplicity (plus propagated error) stays below ~8 —
    // and clamping bounds the damage exactly as for Figure 1 value error.
    const int64_t* vs = &value_sums[cell * dim];
    int64_t signed_count = side > 0 ? copies : -copies;
    const uint64_t vmask = value_mask_;
    const uint64_t vhalf = (vmask >> 1) + 1;
    for (size_t j = 0; j < dim; ++j) {
      int64_t v = vs[j];
      if (vmask != ~static_cast<uint64_t>(0)) {
        const uint64_t res = static_cast<uint64_t>(v) & vmask;
        v = res >= vhalf ? static_cast<int64_t>(res - vmask - 1)
                         : static_cast<int64_t>(res);
      }
      average[j] =
          static_cast<double>(v) / static_cast<double>(signed_count);
      if (average[j] < 0.0) average[j] = 0.0;
      double delta = static_cast<double>(params_.delta);
      if (average[j] > delta) average[j] = delta;
    }
    PointStore& values_out = side > 0 ? out->inserted : out->deleted;
    std::vector<uint64_t>& keys_out =
        side > 0 ? out->inserted_keys : out->deleted_keys;
    for (int64_t copy = 0; copy < copies; ++copy) {
      Coord* row = values_out.AppendRow();
      for (size_t j = 0; j < dim; ++j) {
        double floor_val = std::floor(average[j]);
        double frac = average[j] - floor_val;
        Coord v = static_cast<Coord>(floor_val);
        if (frac > 0.0 && rng->Bernoulli(frac)) v += 1;
        if (v > params_.delta) v = params_.delta;
        row[j] = v;
      }
      keys_out.push_back(key);
      if (values_out.size() > max_per_side) {
        return Status::DecodeFailure("RIBLT exceeded per-side pair cap");
      }
    }

    // Subtract the *exact cell contents* (including any accumulated value
    // error) from every cell of the key — this is the error-propagation
    // mechanism of Figure 1.
    int64_t cell_count = counts[cell];
    U128 cell_key_sum = key_sums[cell];
    U128 cell_checksum_sum = checksum_sums[cell];
    for (size_t j = 0; j < dim; ++j) cell_values[j] = vs[j];
    map_.CellsOf(key, cells);
    for (size_t j = 0; j < q; ++j) {
      size_t touched = cells[j];
      counts[touched] -= cell_count;
      key_sums[touched] -= cell_key_sum;
      checksum_sums[touched] -= cell_checksum_sum;
      int64_t* tv = &value_sums[touched * dim];
      for (size_t i = 0; i < dim; ++i) tv[i] -= cell_values[i];
      if (!queued[touched]) {
        int64_t c2;
        uint64_t k2;
        int s2;
        if (CellIsPure(counts, key_sums, checksum_sums, checksum_salt_, mask,
                       touched, &c2, &k2, &s2)) {
          scratch.queue.push_back(static_cast<uint32_t>(touched));
          queued[touched] = 1;
        }
      }
    }
  }

  // Success: all counts and key material drained. Value residue from
  // canceled equal-key pairs is expected (it is exactly the in-bucket error
  // the analysis charges to mu).
  out->complete = true;
  for (size_t c = 0; c < total; ++c) {
    if (counts[c] != 0 || key_sums[c] != 0 ||
        (checksum_sums[c] & mask) != 0) {
      out->complete = false;
      break;
    }
  }
  if (!out->complete) {
    return Status::DecodeFailure("RIBLT peeling stuck (nonempty 2-core)");
  }
  return Status::OK();
}

Result<RibltDecodeResult> Riblt::Decode(size_t max_pairs, size_t max_per_side,
                                        Rng* rng) const {
  RibltDecodeResult result;
  RSR_RETURN_NOT_OK(DecodeInto(max_pairs, max_per_side, rng, &result));
  return result;
}

namespace {

/// Wire checksum-sum width for a compact RIBLT. Purity false positives cost
/// one trial per peel-loop visit, and visits scale with the decodable load
/// (~m/4 entries at the peeling threshold), not with the cell count — so a
/// 2^-16 per-decode budget needs 16 + log2(m/4) bits, two fewer than the
/// per-cell-trial bound. Capped at 64 bits — checksum terms are 32-bit, so
/// 64-bit residues are exact for any realistic batch — and at the table's
/// current mask width.
int RibltCompactChecksumBits(size_t num_cells, U128 mask) {
  int bits = 16 + static_cast<int>(std::bit_width((num_cells + 3) / 4));
  bits = std::min(bits, 64);
  return std::min(bits, BitWidth128(mask));
}

}  // namespace

// RSR_ZERO_ALLOC: warm serves encode into a pooled writer
// (SyncServerTest.WarmServeSerializeDoesNotAllocate).
void Riblt::WriteTo(ByteWriter* w, WireCodec codec) const {
  const size_t m = counts_.size();
  const size_t dim = params_.dim;
  if (codec == WireCodec::kClassic) {
    // Varint-coded sums: an empty cell costs 3 bytes + d value bytes; tables
    // serialized before any deletion (Algorithm 1 ships Alice's inserts
    // only) have nonnegative sums, so the encoding stays compact. Wrapped
    // (negative) sums still round-trip correctly, just at the full 19-byte
    // width.
    for (size_t c = 0; c < m; ++c) {
      w->PutSignedVarint64(counts_[c]);
      w->PutVarint128(key_sums_[c]);
      w->PutVarint128(checksum_sums_[c]);
      const int64_t* vs = &value_sums_[c * dim];
      for (size_t j = 0; j < dim; ++j) w->PutSignedVarint64(vs[j]);
    }
    return;
  }

  // Compact: every shipped field is a frame-of-reference delta at the width
  // its min..max range needs, checksum sums are shipped mod 2^chk_bits, and
  // a bitmap (sparse mode) drops empty cells when that wins by exact byte
  // count. Value sums ship in one of two forms, whichever is smaller:
  //  - FoR residuals against a per-dim count-slope predictor
  //    (val ~ count * val_mu): subtracting the shipped slope removes the
  //    occupancy component of the spread, and the width tracks only the
  //    intrinsic coordinate variance. Exact full-width round trip.
  //  - mod-2^Wv residues (mode bit 1), Wv = bit_width(delta)+4: the decoder
  //    only ever needs value sums of the *difference* table after
  //    subtracting its own sketch, and those are bounded by per-cell diff
  //    multiplicity * delta — so shipping residues and centered-lifting at
  //    extraction is exact for any cell with <= 8 net diff copies (plus
  //    slack for propagated Figure 1 error). This is what keeps dense
  //    maintained tables from paying full sum width for every cell.
  // Layout per docs/WIRE.md:
  //   mode u8 (bit0 sparse, bit1 values-mod) · chk_bits u8 ·
  //   cnt_base svarint + cnt_bits u8 · key_base varint128 + key_bits u8 ·
  //   values-mod ? (wv u8) : per-dim (val_mu svarint + val_base svarint +
  //   val_bits u8) · [bitmap] · bitstream (cnt Δ, key Δ, chk residue,
  //   val residual Δs or mod residues per included cell) · zero-pad to byte.
  const int chk_bits = RibltCompactChecksumBits(m, checksum_mask_);
  const U128 wire_mask = sketch_internal::LowBits<U128>(chk_bits);

  // Count-slope predictor: val_mu[j] = (sum of value sums) / (sum of
  // counts), in wrapping arithmetic. Any slope round-trips exactly; a
  // wrapped or skewed one only widens the residual FoR.
  uint64_t total_cnt = 0;
  static thread_local std::vector<uint64_t> total_val;
  total_val.assign(dim, 0);
  for (size_t c = 0; c < m; ++c) {
    total_cnt += static_cast<uint64_t>(counts_[c]);
    const int64_t* vs = &value_sums_[c * dim];
    for (size_t j = 0; j < dim; ++j) {
      total_val[j] += static_cast<uint64_t>(vs[j]);
    }
  }
  static thread_local std::vector<int64_t> val_mu;
  val_mu.assign(dim, 0);
  if (static_cast<int64_t>(total_cnt) != 0) {
    for (size_t j = 0; j < dim; ++j) {
      val_mu[j] = static_cast<int64_t>(total_val[j]) /
                  static_cast<int64_t>(total_cnt);
    }
  }
  auto val_resid = [&](size_t c, size_t j) {
    return static_cast<int64_t>(
        static_cast<uint64_t>(value_sums_[c * dim + j]) -
        static_cast<uint64_t>(counts_[c]) *
            static_cast<uint64_t>(val_mu[j]));
  };

  uint8_t* const included = sketch_internal::CellFlags(m);
  // Field ranges over all cells (dense candidate) and over included cells
  // (sparse candidate).
  using sketch_internal::FieldRange;
  using sketch_internal::SpreadBits;
  FieldRange<int64_t> cnt_d, cnt_s;
  FieldRange<U128> key_d, key_s;
  static thread_local std::vector<FieldRange<int64_t>> val_d, val_s;
  val_d.assign(dim, {});
  val_s.assign(dim, {});
  size_t n_included = 0;
  for (size_t c = 0; c < m; ++c) {
    const int64_t* vs = &value_sums_[c * dim];
    cnt_d.Add(counts_[c]);
    key_d.Add(key_sums_[c]);
    for (size_t j = 0; j < dim; ++j) val_d[j].Add(val_resid(c, j));
    bool nonzero = counts_[c] != 0 || key_sums_[c] != 0 ||
                   (checksum_sums_[c] & wire_mask) != 0;
    if (!nonzero) {
      for (size_t j = 0; j < dim; ++j) {
        if ((static_cast<uint64_t>(vs[j]) & value_mask_) != 0) {
          nonzero = true;
          break;
        }
      }
    }
    if (!nonzero) continue;
    included[c] = 1;
    ++n_included;
    cnt_s.Add(counts_[c]);
    key_s.Add(key_sums_[c]);
    for (size_t j = 0; j < dim; ++j) val_s[j].Add(val_resid(c, j));
  }

  const int cnt_bits_d = SpreadBits(cnt_d);
  const int cnt_bits_s = SpreadBits(cnt_s);
  const int key_bits_d = BitWidth128(key_d.hi - key_d.lo);
  const int key_bits_s = BitWidth128(key_s.hi - key_s.lo);
  const size_t base_bits_d =
      static_cast<size_t>(cnt_bits_d + key_bits_d + chk_bits);
  const size_t base_bits_s =
      static_cast<size_t>(cnt_bits_s + key_bits_s + chk_bits);
  // Mod-value wire width: enough for +-8 copies of a delta-bounded
  // coordinate after the receiver's subtraction, clamped by an already
  // narrowed value mask (re-serialized parses) and the 64-bit slab.
  const int wv_mod = std::min(
      {64,
       static_cast<int>(
           std::bit_width(static_cast<uint64_t>(params_.delta))) +
           4,
       static_cast<int>(std::bit_width(value_mask_))});
  size_t val_for_bits_d = 0, val_for_bits_s = 0;
  size_t val_for_hdr = 0;
  for (size_t j = 0; j < dim; ++j) {
    val_for_bits_d += static_cast<size_t>(SpreadBits(val_d[j]));
    val_for_bits_s += static_cast<size_t>(SpreadBits(val_s[j]));
    val_for_hdr += SignedVarint64Size(val_mu[j]) + 1;
  }
  size_t val_for_hdr_d = val_for_hdr, val_for_hdr_s = val_for_hdr;
  for (size_t j = 0; j < dim; ++j) {
    val_for_hdr_d += SignedVarint64Size(val_d[j].lo);
    val_for_hdr_s += SignedVarint64Size(val_s[j].lo);
  }
  const size_t val_mod_bits = dim * static_cast<size_t>(wv_mod);
  const size_t hdr_d =
      2 + SignedVarint64Size(cnt_d.lo) + 1 + Varint128Size(key_d.lo) + 1;
  const size_t hdr_s = 2 + SignedVarint64Size(cnt_s.lo) + 1 +
                       Varint128Size(key_s.lo) + 1 + (m + 7) / 8;
  // Four candidates: {dense, sparse} x {FoR values, mod values}; exact byte
  // counts, deterministic preference order on ties.
  const size_t size_df =
      hdr_d + val_for_hdr_d + (m * (base_bits_d + val_for_bits_d) + 7) / 8;
  const size_t size_dm = hdr_d + 1 + (m * (base_bits_d + val_mod_bits) + 7) / 8;
  const size_t size_sf = hdr_s + val_for_hdr_s +
                         (n_included * (base_bits_s + val_for_bits_s) + 7) / 8;
  const size_t size_sm =
      hdr_s + 1 + (n_included * (base_bits_s + val_mod_bits) + 7) / 8;
  const size_t best = std::min({size_df, size_dm, size_sf, size_sm});
  const bool sparse = best != size_df && best != size_dm;
  const bool vmod = sparse ? best != size_sf : (best != size_df);

  const int64_t cnt_base = sparse ? cnt_s.lo : cnt_d.lo;
  const int cnt_bits = sparse ? cnt_bits_s : cnt_bits_d;
  const U128 key_base = sparse ? key_s.lo : key_d.lo;
  const int key_bits = sparse ? key_bits_s : key_bits_d;
  const std::vector<FieldRange<int64_t>>& val = sparse ? val_s : val_d;
  const uint64_t wv_mask = sketch_internal::LowBits<uint64_t>(wv_mod);

  // The candidate sizes above are exact, so one reserve covers the whole
  // encode: a cold pooled writer allocates at most once per table and a
  // warm one (EmdServeScratch::message) not at all.
  w->Reserve(w->size_bytes() + best);
  w->PutU8(static_cast<uint8_t>((sparse ? 1 : 0) | (vmod ? 2 : 0)));
  w->PutU8(static_cast<uint8_t>(chk_bits));
  w->PutSignedVarint64(cnt_base);
  w->PutU8(static_cast<uint8_t>(cnt_bits));
  w->PutVarint128(key_base);
  w->PutU8(static_cast<uint8_t>(key_bits));
  static thread_local std::vector<uint8_t> val_bits;
  val_bits.assign(dim, 0);
  if (vmod) {
    w->PutU8(static_cast<uint8_t>(wv_mod));
  } else {
    for (size_t j = 0; j < dim; ++j) {
      val_bits[j] = static_cast<uint8_t>(SpreadBits(val[j]));
      w->PutSignedVarint64(val_mu[j]);
      w->PutSignedVarint64(val[j].lo);
      w->PutU8(val_bits[j]);
    }
  }
  if (sparse) sketch_internal::WriteCellBitmap(w, included, m);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !included[c]) continue;
    w->PutBits(static_cast<uint64_t>(counts_[c]) -
                   static_cast<uint64_t>(cnt_base),
               cnt_bits);
    w->PutBits128(key_sums_[c] - key_base, key_bits);
    w->PutBits(static_cast<uint64_t>(checksum_sums_[c] & wire_mask),
               chk_bits);
    const int64_t* vs = &value_sums_[c * dim];
    for (size_t j = 0; j < dim; ++j) {
      if (vmod) {
        w->PutBits(static_cast<uint64_t>(vs[j]) & wv_mask, wv_mod);
      } else {
        w->PutBits(static_cast<uint64_t>(val_resid(c, j)) -
                       static_cast<uint64_t>(val[j].lo),
                   val_bits[j]);
      }
    }
  }
  w->AlignToByte();
}

Result<Riblt> Riblt::ReadFrom(ByteReader* r, const RibltParams& params,
                              WireCodec codec) {
  Riblt table(params);
  const size_t m = table.counts_.size();
  const size_t dim = table.params_.dim;
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < m; ++c) {
      table.counts_[c] = r->GetSignedVarint64();
      table.key_sums_[c] = r->GetVarint128();
      table.checksum_sums_[c] = r->GetVarint128();
      int64_t* vs = &table.value_sums_[c * dim];
      for (size_t j = 0; j < dim; ++j) {
        vs[j] = r->GetSignedVarint64();
      }
    }
    RSR_RETURN_NOT_OK(r->status());
    return table;
  }

  const uint8_t mode = r->GetU8();
  const int chk_bits = r->GetU8();
  const int64_t cnt_base = r->GetSignedVarint64();
  const int cnt_bits = r->GetU8();
  const U128 key_base = r->GetVarint128();
  const int key_bits = r->GetU8();
  RSR_RETURN_NOT_OK(r->status());
  const int chk_bound = RibltCompactChecksumBits(m, table.checksum_mask_);
  if (mode > 3 || chk_bits < 1 || chk_bits > chk_bound || cnt_bits > 64 ||
      key_bits > 128) {
    r->Invalidate();
    return Status::Corruption("invalid compact RIBLT header");
  }
  const bool vmod = (mode & 2) != 0;
  int wv_mod = 0;
  static thread_local std::vector<int64_t> val_mu;
  static thread_local std::vector<int64_t> val_base;
  static thread_local std::vector<uint8_t> val_bits;
  val_mu.resize(dim);
  val_base.resize(dim);
  val_bits.resize(dim);
  if (vmod) {
    wv_mod = r->GetU8();
    if (wv_mod < 1 || wv_mod > 64) {
      r->Invalidate();
      return Status::Corruption("invalid compact RIBLT value width");
    }
  } else {
    for (size_t j = 0; j < dim; ++j) {
      val_mu[j] = r->GetSignedVarint64();
      val_base[j] = r->GetSignedVarint64();
      val_bits[j] = r->GetU8();
      if (val_bits[j] > 64) {
        r->Invalidate();
        return Status::Corruption("invalid compact RIBLT value width");
      }
    }
  }
  const U128 wire_mask = sketch_internal::LowBits<U128>(chk_bits);
  const uint8_t* const included =
      sketch_internal::ReadCellBitmap(r, m, /*sparse=*/(mode & 1) != 0);
  RSR_RETURN_NOT_OK(r->status());
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    table.counts_[c] = static_cast<int64_t>(
        static_cast<uint64_t>(cnt_base) + r->GetBits(cnt_bits));
    table.key_sums_[c] = key_base + r->GetBits128(key_bits);
    table.checksum_sums_[c] = static_cast<U128>(r->GetBits(chk_bits));
    int64_t* vs = &table.value_sums_[c * dim];
    if (vmod) {
      // Raw residues mod 2^wv; stored zero-extended. The narrowed value
      // mask (set below) makes every downstream comparison/extraction run
      // in the wire's residue ring.
      for (size_t j = 0; j < dim; ++j) {
        vs[j] = static_cast<int64_t>(r->GetBits(wv_mod));
      }
    } else {
      for (size_t j = 0; j < dim; ++j) {
        // Residual + count * slope: exact inverse of the writer's predictor.
        vs[j] = static_cast<int64_t>(
            static_cast<uint64_t>(val_base[j]) + r->GetBits(val_bits[j]) +
            static_cast<uint64_t>(table.counts_[c]) *
                static_cast<uint64_t>(val_mu[j]));
      }
    }
  }
  r->AlignToByte();
  RSR_RETURN_NOT_OK(r->status());
  table.checksum_mask_ &= wire_mask;
  if (vmod) {
    table.value_mask_ &= sketch_internal::LowBits<uint64_t>(wv_mod);
  }
  return table;
}

}  // namespace rsr
