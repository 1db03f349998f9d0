#include "sketch/iblt.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "hashing/checksum.h"

namespace rsr {

namespace {

inline size_t ValueWords(size_t num_cells, size_t value_size) {
  return (num_cells * value_size + 7) / 8;
}

}  // namespace

Iblt::Iblt(const IbltParams& params)
    : params_(params),
      map_(params.num_cells, params.num_hashes, params.seed,
           0x1b17a5e11b17ULL) {
  RSR_CHECK(params.checksum_bytes >= 1 && params.checksum_bytes <= 8);
  num_cells_ = map_.num_cells();
  params_.num_cells = num_cells_;
  checksum_mask_ =
      sketch_internal::LowBits<uint64_t>(8 * params_.checksum_bytes);
  checksum_salt_ = ChecksumSalt(params_.seed);
  arena_.assign(3 * num_cells_ + ValueWords(num_cells_, params_.value_size),
                0);
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.IbltUpdateManyDoesNotAllocate.
void Iblt::UpdateMany(std::span<const uint64_t> keys, int direction) {
  RSR_CHECK_EQ(params_.value_size, 0u);
  for (uint64_t key : keys) UpdateUnchecked(key, nullptr, direction);
}

Status Iblt::CheckCompatible(const Iblt& other) const {
  if (other.params_.num_cells != params_.num_cells ||
      other.params_.num_hashes != params_.num_hashes ||
      other.params_.value_size != params_.value_size ||
      other.params_.checksum_bytes != params_.checksum_bytes ||
      other.params_.seed != params_.seed) {
    return Status::InvalidArgument("IBLT parameter mismatch");
  }
  return Status::OK();
}

IbltDecodeResult Iblt::Decode() const {
  IbltDecodeResult result;
  PeelInto(nullptr, &result);
  return result;
}

Result<IbltDecodeResult> Iblt::DecodeDiff(const Iblt& other) const {
  RSR_RETURN_NOT_OK(CheckCompatible(other));
  IbltDecodeResult result;
  PeelInto(&other, &result);
  return result;
}

void Iblt::PeelInto(const Iblt* subtrahend, IbltDecodeResult* result) const {
  const size_t total = num_cells_;
  const size_t value_size = params_.value_size;
  const uint64_t salt = checksum_salt_;
  // Peel under the mask intersection: a parsed compact table carries a
  // truncated checksum domain, and comparisons against full-width local
  // checksums must happen in that domain.
  const uint64_t eff_mask =
      subtrahend == nullptr ? checksum_mask_
                            : (checksum_mask_ & subtrahend->checksum_mask_);

  // Reusable peel buffers, pooled PER THREAD rather than per instance: this
  // is what makes Decode/DecodeDiff reentrant — concurrent sessions call
  // StrataEstimator::EstimateDiff against one shared snapshot's estimators,
  // each thread peeling on its own pool — while warm repeat decodes on a
  // thread still allocate nothing (capacity persists across calls).
  struct DecodeScratch {
    std::vector<uint64_t> arena;
    std::vector<uint32_t> queue;  // FIFO via head index
    std::vector<uint8_t> queued;
    std::vector<uint8_t> pure;  // cached purity flags, updated incrementally
  };
  static thread_local DecodeScratch scratch_;

  // Work on a pooled copy of the cell arena; with warm (same or larger
  // capacity) scratch this is a memcpy into existing storage.
  scratch_.arena.assign(arena_.begin(), arena_.end());
  int64_t* counts = reinterpret_cast<int64_t*>(scratch_.arena.data());
  uint64_t* keys = scratch_.arena.data() + total;
  uint64_t* checksums = scratch_.arena.data() + 2 * total;
  uint8_t* values =
      reinterpret_cast<uint8_t*>(scratch_.arena.data() + 3 * total);
  if (subtrahend != nullptr) {
    const int64_t* sub_counts = subtrahend->Counts();
    for (size_t i = 0; i < total; ++i) counts[i] -= sub_counts[i];
    for (size_t i = total; i < scratch_.arena.size(); ++i) {
      scratch_.arena[i] ^= subtrahend->arena_[i];
    }
    if (eff_mask != checksum_mask_ ||
        eff_mask != subtrahend->checksum_mask_) {
      for (size_t i = 0; i < total; ++i) checksums[i] &= eff_mask;
    }
  }

  // Cached per-cell purity flags, invalidated incrementally as cells mutate:
  // IsPure's checksum re-derivation happens once per cell state change
  // instead of once per queue visit.
  scratch_.pure.assign(total, 0);
  scratch_.queued.assign(total, 0);
  uint8_t* pure = scratch_.pure.data();
  uint8_t* queued = scratch_.queued.data();
  auto refresh_pure = [&](size_t cell) {
    pure[cell] =
        (counts[cell] == 1 || counts[cell] == -1) &&
        checksums[cell] == (ChecksumWithSalt(keys[cell], salt) & eff_mask);
  };

  scratch_.queue.clear();
  size_t head = 0;
  for (size_t c = 0; c < total; ++c) {
    refresh_pure(c);
    if (pure[c]) {
      scratch_.queue.push_back(static_cast<uint32_t>(c));
      queued[c] = 1;
    }
  }

  size_t cells[kMaxHashes];
  const size_t q = static_cast<size_t>(params_.num_hashes);
  // A complete peel can never extract more distinct entries than cells (a
  // q-uniform hypergraph with more edges than vertices has a nonempty
  // 2-core), so anything past this bound is a corrupted table oscillating
  // (truncated compact checksums admit spurious pure cells whose keys hash
  // elsewhere, re-purifying each other forever). Cut the loop and report
  // the decode incomplete instead of growing without bound.
  const size_t max_entries = 2 * total + 16;
  while (head < scratch_.queue.size()) {
    size_t cell = scratch_.queue[head++];
    queued[cell] = 0;
    if (!pure[cell]) continue;
    if (result->entries.size() >= max_entries) {
      result->complete = false;
      return;
    }

    IbltEntry entry;
    entry.key = keys[cell];
    entry.count = counts[cell];
    if (value_size > 0) {
      const uint8_t* src = values + cell * value_size;
      entry.value.assign(src, src + value_size);
    }

    // Remove the entry from all its cells (including this one), refreshing
    // purity only for the touched cells.
    int direction = entry.count > 0 ? -1 : +1;
    uint64_t checksum = ChecksumWithSalt(entry.key, salt) & eff_mask;
    map_.CellsOf(entry.key, cells);
    for (size_t j = 0; j < q; ++j) {
      size_t touched = cells[j];
      counts[touched] += direction;
      keys[touched] ^= entry.key;
      checksums[touched] ^= checksum;
      if (value_size > 0) {
        uint8_t* dst = values + touched * value_size;
        const uint8_t* src = entry.value.data();
        for (size_t i = 0; i < value_size; ++i) dst[i] ^= src[i];
      }
      refresh_pure(touched);
      if (!queued[touched] && pure[touched]) {
        scratch_.queue.push_back(static_cast<uint32_t>(touched));
        queued[touched] = 1;
      }
    }
    result->entries.push_back(std::move(entry));
  }

  // Complete iff every slab drained — counts, keys, checksums, AND value
  // bytes. A residual value XOR with zeroed counts/keys means two sides
  // disagreed on a key's payload; reporting that as complete would silently
  // drop the difference.
  result->complete = true;
  for (size_t i = 0; i < scratch_.arena.size(); ++i) {
    if (scratch_.arena[i] != 0) {
      result->complete = false;
      break;
    }
  }
}

namespace {

/// Wire checksum width for a compact table: the pure-cell false-positive
/// rate the cell count needs (2^-16 per peel step — the library's estimator
/// strata already run at exactly this rate — plus one bit per doubling of
/// the cell count), never wider than the table's current mask.
int CompactChecksumBits(size_t num_cells, uint64_t checksum_mask,
                        int checksum_bytes) {
  int trunc = std::min(8 * checksum_bytes,
                       16 + static_cast<int>(std::bit_width(num_cells)));
  return std::min(trunc, static_cast<int>(std::bit_width(checksum_mask)));
}

int Width64(uint64_t v) { return static_cast<int>(std::bit_width(v)); }

}  // namespace

// RSR_ZERO_ALLOC: warm serves encode into a pooled writer without heap
// traffic (SyncServerTest.WarmServeSerializeDoesNotAllocate); the inclusion
// flags below are thread_local for the same reason.
void Iblt::WriteTo(ByteWriter* w, WireCodec codec) const {
  const int64_t* counts = Counts();
  const uint64_t* keys = KeyXors();
  const uint64_t* checksums = ChecksumXors();
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < num_cells_; ++c) {
      w->PutSignedVarint64(counts[c]);
      // Empty cells (the common case in a well-sized sketch) cost 3 bytes.
      w->PutVarint64(keys[c]);
      for (int b = 0; b < params_.checksum_bytes; ++b) {
        w->PutU8(static_cast<uint8_t>(checksums[c] >> (8 * b)));
      }
    }
    if (params_.value_size > 0) {
      w->PutBytes(ValueXors(), num_cells_ * params_.value_size);
    }
    return;
  }

  // Compact: frame-of-reference counts, width-packed keys (minus their
  // common trailing zeros), checksums
  // truncated to the width the cell count needs, and a nonzero-cell bitmap
  // (sparse mode) when dropping empty cells wins by exact byte count. Every
  // included cell ships its (truncated) checksum — a leaner "pure cell"
  // elision that re-derived checksums from keys was rejected because it
  // hands corrupted streams guaranteed-valid pure cells, defeating the
  // probabilistic guard the peeler's termination rests on.
  const size_t m = num_cells_;
  const size_t value_size = params_.value_size;
  const uint8_t* values = ValueXors();
  const int chk_bits =
      CompactChecksumBits(m, checksum_mask_, params_.checksum_bytes);
  const uint64_t wire_mask = sketch_internal::LowBits<uint64_t>(chk_bits);

  size_t n_included = 0;
  // Field ranges over all cells (dense) and over included cells (sparse).
  // Keys ship unbased, so only their maxima matter.
  sketch_internal::FieldRange<int64_t> cnt_all, cnt_inc;
  sketch_internal::FieldRange<uint64_t> key_all, key_inc;
  // Common trailing-zero count of every nonzero key XOR, shipped once and
  // stripped from each key field. Strata estimator tables are the target:
  // every key in stratum s ends in exactly s trailing zeros, so their XORs
  // share >= s, and the stratum's cells each save s bits.
  int key_shift = 64;
  // Per-thread inclusion flags (encode runs on concurrent serving threads).
  uint8_t* const included_cells = sketch_internal::CellFlags(m);
  for (size_t c = 0; c < m; ++c) {
    cnt_all.Add(counts[c]);
    key_all.Add(keys[c]);
    if (keys[c] != 0) {
      key_shift = std::min(key_shift, std::countr_zero(keys[c]));
    }
    bool nonzero =
        counts[c] != 0 || keys[c] != 0 || (checksums[c] & wire_mask) != 0;
    if (!nonzero && value_size > 0) {
      const uint8_t* v = values + c * value_size;
      for (size_t i = 0; i < value_size; ++i) {
        if (v[i] != 0) {
          nonzero = true;
          break;
        }
      }
    }
    if (!nonzero) continue;
    included_cells[c] = 1;
    ++n_included;
    cnt_inc.Add(counts[c]);
    key_inc.Add(keys[c]);
  }
  if (key_shift == 64) key_shift = 0;  // no nonzero keys: nothing to strip
  const int cnt_bits_dense = sketch_internal::SpreadBits(cnt_all);
  const int cnt_bits_sparse = sketch_internal::SpreadBits(cnt_inc);
  const int key_bits_dense = Width64(key_all.hi >> key_shift);
  const int key_bits_sparse = Width64(key_inc.hi >> key_shift);

  const size_t dense_bits =
      m * static_cast<size_t>(cnt_bits_dense + key_bits_dense + chk_bits);
  const size_t sparse_bits =
      n_included *
      static_cast<size_t>(cnt_bits_sparse + key_bits_sparse + chk_bits);
  const size_t dense_bytes = (dense_bits + 7) / 8 + m * value_size;
  const size_t sparse_bytes =
      (m + 7) / 8 + (sparse_bits + 7) / 8 + n_included * value_size;
  const bool sparse = sparse_bytes < dense_bytes;

  const int cnt_bits = sparse ? cnt_bits_sparse : cnt_bits_dense;
  const int key_bits = sparse ? key_bits_sparse : key_bits_dense;
  const int64_t cnt_base = sparse ? cnt_inc.lo : cnt_all.lo;
  // Exact-size reserve (the 15 covers the fixed header fields plus the
  // worst-case cnt_base varint): the chosen candidate's byte count is known
  // before a single field is emitted, so a cold pooled writer allocates at
  // most once.
  w->Reserve(w->size_bytes() + 15 + (sparse ? sparse_bytes : dense_bytes));
  w->PutU8(sparse ? 1 : 0);
  w->PutU8(static_cast<uint8_t>(chk_bits));
  w->PutSignedVarint64(cnt_base);
  w->PutU8(static_cast<uint8_t>(cnt_bits));
  w->PutU8(static_cast<uint8_t>(key_bits));
  w->PutU8(static_cast<uint8_t>(key_shift));
  if (sparse) sketch_internal::WriteCellBitmap(w, included_cells, m);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !included_cells[c]) continue;
    w->PutBits(static_cast<uint64_t>(counts[c]) -
                   static_cast<uint64_t>(cnt_base),
               cnt_bits);
    w->PutBits(keys[c] >> key_shift, key_bits);
    w->PutBits(checksums[c] & wire_mask, chk_bits);
  }
  w->AlignToByte();
  if (value_size > 0) {
    for (size_t c = 0; c < m; ++c) {
      if (sparse && !included_cells[c]) continue;
      w->PutBytes(values + c * value_size, value_size);
    }
  }
}

Result<Iblt> Iblt::ReadFrom(ByteReader* r, const IbltParams& params,
                            WireCodec codec) {
  Iblt table(params);
  int64_t* counts = table.Counts();
  uint64_t* keys = table.KeyXors();
  uint64_t* checksums = table.ChecksumXors();
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < table.num_cells_; ++c) {
      counts[c] = r->GetSignedVarint64();
      keys[c] = r->GetVarint64();
      uint64_t checksum = 0;
      for (int b = 0; b < table.params_.checksum_bytes; ++b) {
        checksum |= static_cast<uint64_t>(r->GetU8()) << (8 * b);
      }
      checksums[c] = checksum;
    }
    if (table.params_.value_size > 0) {
      r->GetBytes(table.ValueXors(),
                  table.num_cells_ * table.params_.value_size);
    }
    RSR_RETURN_NOT_OK(r->status());
    return table;
  }

  const size_t m = table.num_cells_;
  const size_t value_size = table.params_.value_size;
  const uint8_t mode = r->GetU8();
  const int chk_bits = r->GetU8();
  const int64_t cnt_base = r->GetSignedVarint64();
  const int cnt_bits = r->GetU8();
  const int key_bits = r->GetU8();
  const int key_shift = r->GetU8();
  RSR_RETURN_NOT_OK(r->status());
  const int chk_bound = CompactChecksumBits(m, table.checksum_mask_,
                                            table.params_.checksum_bytes);
  if (mode > 1 || chk_bits < 1 || chk_bits > chk_bound || cnt_bits > 64 ||
      key_bits > 64 || key_shift > 63 || key_bits + key_shift > 64) {
    r->Invalidate();
    return Status::Corruption("invalid compact IBLT header");
  }
  const uint64_t wire_mask = sketch_internal::LowBits<uint64_t>(chk_bits);
  const uint8_t* const included =
      sketch_internal::ReadCellBitmap(r, m, /*sparse=*/mode == 1);
  RSR_RETURN_NOT_OK(r->status());
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    counts[c] = static_cast<int64_t>(static_cast<uint64_t>(cnt_base) +
                                     r->GetBits(cnt_bits));
    keys[c] = r->GetBits(key_bits) << key_shift;
    checksums[c] = r->GetBits(chk_bits);
  }
  r->AlignToByte();
  if (value_size > 0) {
    uint8_t* values = table.ValueXors();
    for (size_t c = 0; c < m; ++c) {
      if (!included[c]) continue;
      r->GetBytes(values + c * value_size, value_size);
    }
  }
  RSR_RETURN_NOT_OK(r->status());
  table.checksum_mask_ &= wire_mask;
  return table;
}

}  // namespace rsr
