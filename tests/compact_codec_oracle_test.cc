// Differential oracle for the compact sketch codec (docs/WIRE.md).
//
// The compact Iblt/Riblt bodies write and read each table's cell fields as
// one bounded bit run (ByteWriter::PutBitRun / ByteReader::GetBitRun). This
// file keeps the earlier field-by-field implementation as a test-only
// reference: a streaming bit writer and reader (one call per field, a
// partial byte carried between calls, an explicit align at the end) and the
// compact writer and reader bodies written against it. The library must
// match it exactly:
//   - the writers produce byte-identical streams on random tables (dense and
//     sparse, FoR and mod values, dim 1 to 33, wrapped and 64-bit-wide
//     fields, narrowed checksum masks, IBLT key shifts and value slabs,
//     strata estimators);
//   - on every truncation and every single-bit flip of those streams, the
//     readers agree on ok / not ok, and on the cells, masks and bytes
//     consumed when both parse.
// Cell contents are read back through the classic codec, which writes every
// slab at full width.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point_store.h"
#include "hashing/hash64.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/wire.h"

namespace rsr {
namespace {

using U128 = unsigned __int128;

template <typename T>
T Low(int bits) {
  return bits >= static_cast<int>(8 * sizeof(T)) ? ~T{0} : (T{1} << bits) - 1;
}

int Width128(U128 v) {
  const uint64_t hi = static_cast<uint64_t>(v >> 64);
  if (hi != 0) return 64 + static_cast<int>(std::bit_width(hi));
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(v)));
}

// ---- Reference streaming bit layer ----------------------------------------

/// Appends fields LSB-first to `out`, one call per field, carrying a partial
/// byte between calls.
class RefBitWriter {
 public:
  explicit RefBitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutBits(uint64_t v, int nbits) {
    ASSERT_TRUE(nbits >= 0 && nbits <= 64);
    if (nbits == 0) return;
    ASSERT_TRUE(nbits == 64 || (v >> nbits) == 0);
    if (nbits > 56) {
      PutBits(v & 0xffffffffu, 32);
      PutBits(v >> 32, nbits - 32);
      return;
    }
    buf_ |= v << count_;
    count_ += nbits;
    while (count_ >= 8) {
      out_->push_back(static_cast<uint8_t>(buf_));
      buf_ >>= 8;
      count_ -= 8;
    }
  }
  void PutBits128(U128 v, int nbits) {
    if (nbits > 64) {
      PutBits(static_cast<uint64_t>(v), 64);
      PutBits(static_cast<uint64_t>(v >> 64), nbits - 64);
      return;
    }
    PutBits(static_cast<uint64_t>(v), nbits);
  }
  void AlignToByte() {
    if (count_ > 0) out_->push_back(static_cast<uint8_t>(buf_));
    buf_ = 0;
    count_ = 0;
  }

 private:
  std::vector<uint8_t>* out_;
  uint64_t buf_ = 0;
  int count_ = 0;
};

/// Sticky-error reader over buf[pos..): byte fields through ByteReader, bit
/// fields one call each with a partial byte carried between calls. A byte
/// read while bits are pending, an overrun, or nonzero padding at
/// AlignToByte fails the reader.
class RefReader {
 public:
  RefReader(const std::vector<uint8_t>& buf, size_t pos)
      : buf_(buf), pos_(pos) {}

  uint8_t GetU8() {
    ByteReader r = Begin();
    const uint8_t v = r.GetU8();
    End(r);
    return v;
  }
  int64_t GetSignedVarint64() {
    ByteReader r = Begin();
    const int64_t v = r.GetSignedVarint64();
    End(r);
    return v;
  }
  U128 GetVarint128() {
    ByteReader r = Begin();
    const U128 v = r.GetVarint128();
    End(r);
    return v;
  }
  void GetBytes(uint8_t* out, size_t len) {
    ByteReader r = Begin();
    r.GetBytes(out, len);
    End(r);
  }

  uint64_t GetBits(int nbits) {
    if (failed_ || nbits < 0 || nbits > 64) {
      failed_ = true;
      return 0;
    }
    if (nbits == 0) return 0;
    if (nbits > 56) {
      const uint64_t lo = GetBits(32);
      const uint64_t hi = GetBits(nbits - 32);
      return lo | (hi << 32);
    }
    while (avail_ < nbits) {
      if (pos_ >= buf_.size()) {
        failed_ = true;
        return 0;
      }
      bits_ |= static_cast<uint64_t>(buf_[pos_++]) << avail_;
      avail_ += 8;
    }
    const uint64_t v = bits_ & Low<uint64_t>(nbits);
    bits_ >>= nbits;
    avail_ -= nbits;
    return v;
  }
  U128 GetBits128(int nbits) {
    if (nbits > 64) {
      const U128 lo = GetBits(64);
      return lo | (static_cast<U128>(GetBits(nbits - 64)) << 64);
    }
    return GetBits(nbits);
  }
  void AlignToByte() {
    if (bits_ != 0) failed_ = true;
    bits_ = 0;
    avail_ = 0;
  }

  bool failed() const { return failed_; }
  size_t pos() const { return pos_; }

 private:
  /// A reader over the unread bytes for one byte-level field: poisoned if
  /// this reader failed or has bits pending.
  ByteReader Begin() {
    if (avail_ != 0) failed_ = true;
    ByteReader r(buf_.data() + pos_, failed_ ? 0 : buf_.size() - pos_);
    if (failed_) r.Invalidate();
    return r;
  }
  /// Moves past the bytes r consumed and takes on its failure.
  void End(const ByteReader& r) {
    if (r.failed()) failed_ = true;
    pos_ = buf_.size() - r.remaining();
  }

  const std::vector<uint8_t>& buf_;
  size_t pos_;
  bool failed_ = false;
  uint64_t bits_ = 0;
  int avail_ = 0;
};

void RefWriteBitmap(const std::vector<uint8_t>& flags,
                    std::vector<uint8_t>* out) {
  for (size_t base = 0; base < flags.size(); base += 8) {
    uint8_t byte = 0;
    for (size_t i = 0; i < 8 && base + i < flags.size(); ++i) {
      if (flags[base + i]) byte |= static_cast<uint8_t>(1u << i);
    }
    out->push_back(byte);
  }
}

bool RefReadBitmap(RefReader* r, size_t m, bool sparse,
                   std::vector<uint8_t>* flags) {
  flags->assign(m, 1);
  if (!sparse) return true;
  for (size_t base = 0; base < m; base += 8) {
    const uint8_t byte = r->GetU8();
    for (size_t i = 0; i < 8; ++i) {
      if (base + i < m) {
        (*flags)[base + i] = (byte >> i) & 1;
      } else if ((byte >> i) & 1) {
        return false;
      }
    }
  }
  return !r->failed();
}

/// Forces a reference writer's choices (a crafted but well-formed stream):
/// mode -1 picks the smallest candidate as the library does; chk_bits 0
/// uses the table's own checksum width.
struct RefForce {
  int mode = -1;
  int chk_bits = 0;
};

/// What a reference writer emitted, for coverage assertions.
struct RefLayout {
  int mode = 0;
  int chk_bits = 0;
  int cnt_bits = 0;
  int key_bits = 0;
  int max_val_bits = 0;
  int key_shift = 0;
};

template <typename T>
struct Range {
  T lo{};
  T hi{};
  bool empty = true;
  void Add(T v) {
    lo = empty ? v : std::min(lo, v);
    hi = empty ? v : std::max(hi, v);
    empty = false;
  }
  int Spread() const {
    return static_cast<int>(std::bit_width(static_cast<uint64_t>(hi) -
                                           static_cast<uint64_t>(lo)));
  }
};

// ---- RIBLT reference --------------------------------------------------------

struct RibltCells {
  std::vector<int64_t> counts;
  std::vector<U128> key_sums;
  std::vector<U128> checksum_sums;
  std::vector<int64_t> value_sums;
  U128 checksum_mask = ~U128{0};
  uint64_t value_mask = ~uint64_t{0};
  bool operator==(const RibltCells&) const = default;
};

RibltCells DumpRiblt(const Riblt& table) {
  const size_t m = table.num_cells();
  const size_t dim = table.params().dim;
  ByteWriter w;
  table.WriteTo(&w, WireCodec::kClassic);
  ByteReader r(w.buffer());
  RibltCells cells;
  for (size_t c = 0; c < m; ++c) {
    cells.counts.push_back(r.GetSignedVarint64());
    cells.key_sums.push_back(r.GetVarint128());
    cells.checksum_sums.push_back(r.GetVarint128());
    for (size_t j = 0; j < dim; ++j) {
      cells.value_sums.push_back(r.GetSignedVarint64());
    }
  }
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  cells.checksum_mask = table.checksum_mask();
  cells.value_mask = table.value_mask();
  return cells;
}

int RefRibltChecksumBits(size_t m, U128 mask) {
  int bits = 16 + static_cast<int>(std::bit_width((m + 3) / 4));
  bits = std::min(bits, 64);
  return std::min(bits, Width128(mask));
}

size_t RefVarint128Size(U128 v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

size_t RefSignedVarintSize(int64_t v) {
  return RefVarint128Size((static_cast<uint64_t>(v) << 1) ^
                          static_cast<uint64_t>(v >> 63));
}

std::vector<uint8_t> RefWriteRiblt(const RibltCells& cells, size_t dim,
                                   int64_t delta, RefForce force = {},
                                   RefLayout* layout = nullptr) {
  const size_t m = cells.counts.size();
  const int chk_bits = force.chk_bits != 0
                           ? force.chk_bits
                           : RefRibltChecksumBits(m, cells.checksum_mask);
  const U128 wire_mask = Low<U128>(chk_bits);

  uint64_t total_cnt = 0;
  std::vector<uint64_t> total_val(dim, 0);
  for (size_t c = 0; c < m; ++c) {
    total_cnt += static_cast<uint64_t>(cells.counts[c]);
    for (size_t j = 0; j < dim; ++j) {
      total_val[j] += static_cast<uint64_t>(cells.value_sums[c * dim + j]);
    }
  }
  std::vector<int64_t> val_mu(dim, 0);
  if (static_cast<int64_t>(total_cnt) != 0) {
    for (size_t j = 0; j < dim; ++j) {
      val_mu[j] = static_cast<int64_t>(total_val[j]) /
                  static_cast<int64_t>(total_cnt);
    }
  }
  auto val_resid = [&](size_t c, size_t j) {
    return static_cast<int64_t>(
        static_cast<uint64_t>(cells.value_sums[c * dim + j]) -
        static_cast<uint64_t>(cells.counts[c]) *
            static_cast<uint64_t>(val_mu[j]));
  };

  std::vector<uint8_t> included(m, 0);
  Range<int64_t> cnt_d, cnt_s;
  Range<U128> key_d, key_s;
  std::vector<Range<int64_t>> val_d(dim), val_s(dim);
  size_t n_included = 0;
  for (size_t c = 0; c < m; ++c) {
    cnt_d.Add(cells.counts[c]);
    key_d.Add(cells.key_sums[c]);
    for (size_t j = 0; j < dim; ++j) val_d[j].Add(val_resid(c, j));
    bool nonzero = cells.counts[c] != 0 || cells.key_sums[c] != 0 ||
                   (cells.checksum_sums[c] & wire_mask) != 0;
    for (size_t j = 0; j < dim && !nonzero; ++j) {
      nonzero = (static_cast<uint64_t>(cells.value_sums[c * dim + j]) &
                 cells.value_mask) != 0;
    }
    if (!nonzero) continue;
    included[c] = 1;
    ++n_included;
    cnt_s.Add(cells.counts[c]);
    key_s.Add(cells.key_sums[c]);
    for (size_t j = 0; j < dim; ++j) val_s[j].Add(val_resid(c, j));
  }
  const int key_bits_d = Width128(key_d.hi - key_d.lo);
  const int key_bits_s = Width128(key_s.hi - key_s.lo);
  const size_t base_d = static_cast<size_t>(cnt_d.Spread() + key_bits_d +
                                            chk_bits);
  const size_t base_s = static_cast<size_t>(cnt_s.Spread() + key_bits_s +
                                            chk_bits);
  const int wv_mod = std::min(
      {64,
       static_cast<int>(std::bit_width(static_cast<uint64_t>(delta))) + 4,
       static_cast<int>(std::bit_width(cells.value_mask))});
  size_t for_bits_d = 0, for_bits_s = 0, for_hdr_d = 0, for_hdr_s = 0;
  for (size_t j = 0; j < dim; ++j) {
    for_bits_d += static_cast<size_t>(val_d[j].Spread());
    for_bits_s += static_cast<size_t>(val_s[j].Spread());
    for_hdr_d += RefSignedVarintSize(val_mu[j]) + 1 +
                 RefSignedVarintSize(val_d[j].lo);
    for_hdr_s += RefSignedVarintSize(val_mu[j]) + 1 +
                 RefSignedVarintSize(val_s[j].lo);
  }
  const size_t mod_bits = dim * static_cast<size_t>(wv_mod);
  const size_t hdr_d = 2 + RefSignedVarintSize(cnt_d.lo) + 1 +
                       RefVarint128Size(key_d.lo) + 1;
  const size_t hdr_s = 2 + RefSignedVarintSize(cnt_s.lo) + 1 +
                       RefVarint128Size(key_s.lo) + 1 + (m + 7) / 8;
  const size_t size_df =
      hdr_d + for_hdr_d + (m * (base_d + for_bits_d) + 7) / 8;
  const size_t size_dm = hdr_d + 1 + (m * (base_d + mod_bits) + 7) / 8;
  const size_t size_sf =
      hdr_s + for_hdr_s + (n_included * (base_s + for_bits_s) + 7) / 8;
  const size_t size_sm = hdr_s + 1 + (n_included * (base_s + mod_bits) + 7) / 8;
  const size_t best = std::min({size_df, size_dm, size_sf, size_sm});
  bool sparse = best != size_df && best != size_dm;
  bool vmod = sparse ? best != size_sf : best != size_df;
  if (force.mode >= 0) {
    sparse = (force.mode & 1) != 0;
    vmod = (force.mode & 2) != 0;
  }

  const Range<int64_t>& cnt = sparse ? cnt_s : cnt_d;
  const Range<U128>& key = sparse ? key_s : key_d;
  const int key_bits = sparse ? key_bits_s : key_bits_d;
  const std::vector<Range<int64_t>>& val = sparse ? val_s : val_d;

  ByteWriter hdr;
  hdr.PutU8(static_cast<uint8_t>((sparse ? 1 : 0) | (vmod ? 2 : 0)));
  hdr.PutU8(static_cast<uint8_t>(chk_bits));
  hdr.PutSignedVarint64(cnt.lo);
  hdr.PutU8(static_cast<uint8_t>(cnt.Spread()));
  hdr.PutVarint128(key.lo);
  hdr.PutU8(static_cast<uint8_t>(key_bits));
  int max_val_bits = vmod ? wv_mod : 0;
  if (vmod) {
    hdr.PutU8(static_cast<uint8_t>(wv_mod));
  } else {
    for (size_t j = 0; j < dim; ++j) {
      hdr.PutSignedVarint64(val_mu[j]);
      hdr.PutSignedVarint64(val[j].lo);
      hdr.PutU8(static_cast<uint8_t>(val[j].Spread()));
      max_val_bits = std::max(max_val_bits, val[j].Spread());
    }
  }
  std::vector<uint8_t> out = hdr.buffer();
  if (sparse) RefWriteBitmap(included, &out);
  RefBitWriter bits(&out);
  const uint64_t wv_mask = Low<uint64_t>(wv_mod);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !included[c]) continue;
    bits.PutBits(static_cast<uint64_t>(cells.counts[c]) -
                     static_cast<uint64_t>(cnt.lo),
                 cnt.Spread());
    bits.PutBits128(cells.key_sums[c] - key.lo, key_bits);
    bits.PutBits(static_cast<uint64_t>(cells.checksum_sums[c] & wire_mask),
                 chk_bits);
    for (size_t j = 0; j < dim; ++j) {
      if (vmod) {
        bits.PutBits(
            static_cast<uint64_t>(cells.value_sums[c * dim + j]) & wv_mask,
            wv_mod);
      } else {
        bits.PutBits(static_cast<uint64_t>(val_resid(c, j)) -
                         static_cast<uint64_t>(val[j].lo),
                     val[j].Spread());
      }
    }
  }
  bits.AlignToByte();
  if (layout != nullptr) {
    *layout = {(sparse ? 1 : 0) | (vmod ? 2 : 0), chk_bits, cnt.Spread(),
               key_bits, max_val_bits, 0};
  }
  return out;
}

/// The reference compact RIBLT reader from buf[*pos..): the cells, or
/// nullopt where the stream is rejected. Advances *pos on success.
std::optional<RibltCells> RefReadRiblt(const std::vector<uint8_t>& buf,
                                       size_t* pos, size_t m, size_t dim) {
  RefReader r(buf, *pos);
  const int mode = r.GetU8();
  const int chk_bits = r.GetU8();
  const int64_t cnt_base = r.GetSignedVarint64();
  const int cnt_bits = r.GetU8();
  const U128 key_base = r.GetVarint128();
  const int key_bits = r.GetU8();
  if (r.failed()) return std::nullopt;
  if (mode > 3 || chk_bits < 1 ||
      chk_bits > RefRibltChecksumBits(m, ~U128{0}) || cnt_bits > 64 ||
      key_bits > 128) {
    return std::nullopt;
  }
  const bool vmod = (mode & 2) != 0;
  int wv_mod = 0;
  std::vector<int64_t> val_mu(dim), val_base(dim);
  std::vector<int> val_bits(dim);
  if (vmod) {
    wv_mod = r.GetU8();
    if (wv_mod < 1 || wv_mod > 64) return std::nullopt;
  } else {
    for (size_t j = 0; j < dim; ++j) {
      val_mu[j] = r.GetSignedVarint64();
      val_base[j] = r.GetSignedVarint64();
      val_bits[j] = r.GetU8();
      if (val_bits[j] > 64) return std::nullopt;
    }
  }
  std::vector<uint8_t> included;
  if (!RefReadBitmap(&r, m, (mode & 1) != 0, &included)) return std::nullopt;
  RibltCells cells;
  cells.counts.assign(m, 0);
  cells.key_sums.assign(m, 0);
  cells.checksum_sums.assign(m, 0);
  cells.value_sums.assign(m * dim, 0);
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    cells.counts[c] = static_cast<int64_t>(static_cast<uint64_t>(cnt_base) +
                                           r.GetBits(cnt_bits));
    cells.key_sums[c] = key_base + r.GetBits128(key_bits);
    cells.checksum_sums[c] = r.GetBits(chk_bits);
    for (size_t j = 0; j < dim; ++j) {
      cells.value_sums[c * dim + j] =
          vmod ? static_cast<int64_t>(r.GetBits(wv_mod))
               : static_cast<int64_t>(
                     static_cast<uint64_t>(val_base[j]) +
                     r.GetBits(val_bits[j]) +
                     static_cast<uint64_t>(cells.counts[c]) *
                         static_cast<uint64_t>(val_mu[j]));
    }
  }
  r.AlignToByte();
  if (r.failed()) return std::nullopt;
  cells.checksum_mask = Low<U128>(chk_bits);
  cells.value_mask = vmod ? Low<uint64_t>(wv_mod) : ~uint64_t{0};
  *pos = r.pos();
  return cells;
}

// ---- IBLT reference ---------------------------------------------------------

struct IbltCells {
  std::vector<int64_t> counts;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> checksums;
  std::vector<uint8_t> values;
  uint64_t checksum_mask = ~uint64_t{0};
  bool operator==(const IbltCells&) const = default;
};

/// Cells of one IBLT from a classic stream at r (no mask: callers set it).
IbltCells ReadClassicIbltCells(ByteReader* r, const IbltParams& params,
                               size_t m) {
  IbltCells cells;
  for (size_t c = 0; c < m; ++c) {
    cells.counts.push_back(r->GetSignedVarint64());
    cells.keys.push_back(r->GetVarint64());
    uint64_t checksum = 0;
    for (int b = 0; b < params.checksum_bytes; ++b) {
      checksum |= static_cast<uint64_t>(r->GetU8()) << (8 * b);
    }
    cells.checksums.push_back(checksum);
  }
  cells.values.resize(m * params.value_size);
  if (!cells.values.empty()) {
    r->GetBytes(cells.values.data(), cells.values.size());
  }
  EXPECT_FALSE(r->failed());
  return cells;
}

IbltCells DumpIblt(const Iblt& table) {
  ByteWriter w;
  table.WriteTo(&w, WireCodec::kClassic);
  ByteReader r(w.buffer());
  IbltCells cells = ReadClassicIbltCells(&r, table.params(), table.num_cells());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  cells.checksum_mask = table.checksum_mask();
  return cells;
}

int RefIbltChecksumBits(size_t m, uint64_t mask, int checksum_bytes) {
  const int trunc = std::min(8 * checksum_bytes,
                             16 + static_cast<int>(std::bit_width(m)));
  return std::min(trunc, static_cast<int>(std::bit_width(mask)));
}

std::vector<uint8_t> RefWriteIblt(const IbltCells& cells,
                                  const IbltParams& params,
                                  RefForce force = {},
                                  RefLayout* layout = nullptr) {
  const size_t m = cells.counts.size();
  const size_t value_size = params.value_size;
  const int chk_bits =
      force.chk_bits != 0
          ? force.chk_bits
          : RefIbltChecksumBits(m, cells.checksum_mask, params.checksum_bytes);
  const uint64_t wire_mask = Low<uint64_t>(chk_bits);
  std::vector<uint8_t> included(m, 0);
  size_t n_included = 0;
  Range<int64_t> cnt_all, cnt_inc;
  Range<uint64_t> key_all, key_inc;
  int key_shift = 64;
  for (size_t c = 0; c < m; ++c) {
    cnt_all.Add(cells.counts[c]);
    key_all.Add(cells.keys[c]);
    if (cells.keys[c] != 0) {
      key_shift = std::min(key_shift, std::countr_zero(cells.keys[c]));
    }
    bool nonzero = cells.counts[c] != 0 || cells.keys[c] != 0 ||
                   (cells.checksums[c] & wire_mask) != 0;
    for (size_t i = 0; i < value_size && !nonzero; ++i) {
      nonzero = cells.values[c * value_size + i] != 0;
    }
    if (!nonzero) continue;
    included[c] = 1;
    ++n_included;
    cnt_inc.Add(cells.counts[c]);
    key_inc.Add(cells.keys[c]);
  }
  if (key_shift == 64) key_shift = 0;
  auto key_width = [&](const Range<uint64_t>& r) {
    return static_cast<int>(std::bit_width(r.hi >> key_shift));
  };
  const size_t dense_bits = m * static_cast<size_t>(cnt_all.Spread() +
                                                    key_width(key_all) +
                                                    chk_bits);
  const size_t sparse_bits =
      n_included * static_cast<size_t>(cnt_inc.Spread() + key_width(key_inc) +
                                       chk_bits);
  const size_t dense_bytes = (dense_bits + 7) / 8 + m * value_size;
  const size_t sparse_bytes =
      (m + 7) / 8 + (sparse_bits + 7) / 8 + n_included * value_size;
  bool sparse = sparse_bytes < dense_bytes;
  if (force.mode >= 0) sparse = force.mode == 1;
  const Range<int64_t>& cnt = sparse ? cnt_inc : cnt_all;
  const int key_bits = key_width(sparse ? key_inc : key_all);

  ByteWriter hdr;
  hdr.PutU8(sparse ? 1 : 0);
  hdr.PutU8(static_cast<uint8_t>(chk_bits));
  hdr.PutSignedVarint64(cnt.lo);
  hdr.PutU8(static_cast<uint8_t>(cnt.Spread()));
  hdr.PutU8(static_cast<uint8_t>(key_bits));
  hdr.PutU8(static_cast<uint8_t>(key_shift));
  std::vector<uint8_t> out = hdr.buffer();
  if (sparse) RefWriteBitmap(included, &out);
  RefBitWriter bits(&out);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !included[c]) continue;
    bits.PutBits(static_cast<uint64_t>(cells.counts[c]) -
                     static_cast<uint64_t>(cnt.lo),
                 cnt.Spread());
    bits.PutBits(cells.keys[c] >> key_shift, key_bits);
    bits.PutBits(cells.checksums[c] & wire_mask, chk_bits);
  }
  bits.AlignToByte();
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !included[c]) continue;
    const uint8_t* v = cells.values.data() + c * value_size;
    out.insert(out.end(), v, v + value_size);
  }
  if (layout != nullptr) {
    *layout = {sparse ? 1 : 0, chk_bits, cnt.Spread(), key_bits, 0,
               key_shift};
  }
  return out;
}

std::optional<IbltCells> RefReadIblt(const std::vector<uint8_t>& buf,
                                     size_t* pos, const IbltParams& params,
                                     size_t m) {
  RefReader r(buf, *pos);
  const size_t value_size = params.value_size;
  const int mode = r.GetU8();
  const int chk_bits = r.GetU8();
  const int64_t cnt_base = r.GetSignedVarint64();
  const int cnt_bits = r.GetU8();
  const int key_bits = r.GetU8();
  const int key_shift = r.GetU8();
  if (r.failed()) return std::nullopt;
  const uint64_t full_mask = Low<uint64_t>(8 * params.checksum_bytes);
  if (mode > 1 || chk_bits < 1 ||
      chk_bits > RefIbltChecksumBits(m, full_mask, params.checksum_bytes) ||
      cnt_bits > 64 || key_bits > 64 || key_shift > 63 ||
      key_bits + key_shift > 64) {
    return std::nullopt;
  }
  std::vector<uint8_t> included;
  if (!RefReadBitmap(&r, m, mode == 1, &included)) return std::nullopt;
  IbltCells cells;
  cells.counts.assign(m, 0);
  cells.keys.assign(m, 0);
  cells.checksums.assign(m, 0);
  cells.values.assign(m * value_size, 0);
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    cells.counts[c] = static_cast<int64_t>(static_cast<uint64_t>(cnt_base) +
                                           r.GetBits(cnt_bits));
    cells.keys[c] = r.GetBits(key_bits) << key_shift;
    cells.checksums[c] = r.GetBits(chk_bits);
  }
  r.AlignToByte();
  for (size_t c = 0; c < m && value_size > 0; ++c) {
    if (included[c]) r.GetBytes(&cells.values[c * value_size], value_size);
  }
  if (r.failed()) return std::nullopt;
  cells.checksum_mask = full_mask & Low<uint64_t>(chk_bits);
  *pos = r.pos();
  return cells;
}

// ---- Strata (per-stratum IBLTs in order) ------------------------------------

std::vector<IbltParams> StrataIbltParams(const StrataParams& params) {
  std::vector<IbltParams> out;
  for (int i = 0; i < params.num_strata; ++i) {
    IbltParams p;
    p.num_cells = params.cells_per_stratum;
    p.num_hashes = params.num_hashes;
    p.value_size = 0;
    p.checksum_bytes = params.checksum_bytes;
    p.seed = HashCombine(params.seed, static_cast<uint64_t>(i));
    out.push_back(p);
  }
  return out;
}

/// Per-stratum cells (masks full width: a fresh estimator's).
std::vector<IbltCells> DumpStrata(const StrataEstimator& est) {
  ByteWriter w;
  est.WriteTo(&w, WireCodec::kClassic);
  ByteReader r(w.buffer());
  std::vector<IbltCells> out;
  for (const IbltParams& p : StrataIbltParams(est.params())) {
    out.push_back(ReadClassicIbltCells(&r, p, Iblt(p).num_cells()));
    out.back().checksum_mask = Low<uint64_t>(8 * p.checksum_bytes);
  }
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  return out;
}

// ---- Sweep ------------------------------------------------------------------

/// Calls check on every truncation and every single-bit flip of bytes.
void ForEachCorruption(const std::vector<uint8_t>& bytes,
                       const std::function<void(const std::vector<uint8_t>&)>&
                           check) {
  std::vector<uint8_t> corrupt;
  for (size_t len = 0; len < bytes.size(); ++len) {
    corrupt.assign(bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(len));
    check(corrupt);
  }
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(corrupt);
  }
}

/// The library's and the reference's RIBLT parse of bytes agree: same
/// ok / not ok, and when both parse, the same cells, masks, bytes consumed
/// and re-encoded bytes. Returns whether the stream parsed.
bool RibltReadersAgree(const std::vector<uint8_t>& bytes,
                       const RibltParams& params) {
  const size_t m = Riblt(params).num_cells();
  size_t ref_pos = 0;
  const std::optional<RibltCells> ref =
      RefReadRiblt(bytes, &ref_pos, m, params.dim);
  ByteReader r(bytes);
  Result<Riblt> parsed = Riblt::ReadFrom(&r, params, WireCodec::kCompact);
  EXPECT_EQ(parsed.ok(), ref.has_value());
  if (!parsed.ok() || !ref.has_value()) return false;
  EXPECT_TRUE(DumpRiblt(*parsed) == *ref);
  EXPECT_EQ(bytes.size() - r.remaining(), ref_pos);
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kCompact);
  EXPECT_EQ(again.buffer(), RefWriteRiblt(*ref, params.dim, params.delta));
  return true;
}

bool IbltReadersAgree(const std::vector<uint8_t>& bytes,
                      const IbltParams& params) {
  const size_t m = Iblt(params).num_cells();
  size_t ref_pos = 0;
  const std::optional<IbltCells> ref = RefReadIblt(bytes, &ref_pos, params, m);
  ByteReader r(bytes);
  Result<Iblt> parsed = Iblt::ReadFrom(&r, params, WireCodec::kCompact);
  EXPECT_EQ(parsed.ok(), ref.has_value());
  if (!parsed.ok() || !ref.has_value()) return false;
  EXPECT_TRUE(DumpIblt(*parsed) == *ref);
  EXPECT_EQ(bytes.size() - r.remaining(), ref_pos);
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kCompact);
  EXPECT_EQ(again.buffer(), RefWriteIblt(*ref, params));
  return true;
}

// ---- Table generators -------------------------------------------------------

PointStore RandomPoints(size_t n, size_t dim, int64_t delta, Rng* rng) {
  PointStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    Coord* row = store.AppendRow();
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<Coord>(rng->Below(static_cast<uint64_t>(delta) + 1));
    }
  }
  return store;
}

std::vector<uint64_t> RandomKeys(size_t n, Rng* rng) {
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng->Next();
  return keys;
}

RibltParams SmallRibltParams(size_t dim, int64_t delta, uint64_t seed,
                             size_t num_cells = 48) {
  RibltParams params;
  params.num_cells = num_cells;
  params.num_hashes = 3;
  params.dim = dim;
  params.delta = delta;
  params.seed = seed;
  return params;
}

/// A table of `inserts` random points, then `deletes` other random points
/// deleted (negative counts, wrapped key and checksum sums).
Riblt RandomRiblt(const RibltParams& params, size_t inserts, size_t deletes,
                  Rng* rng) {
  Riblt table(params);
  const PointStore ins = RandomPoints(inserts, params.dim, params.delta, rng);
  table.InsertMany(RandomKeys(inserts, rng), ins);
  const PointStore del = RandomPoints(deletes, params.dim, params.delta, rng);
  table.DeleteMany(RandomKeys(deletes, rng), del);
  return table;
}

/// A light RandomRiblt plus 2^62 times a table holding one inserted and one
/// deleted all-zero point: counts reach +-2^62 (cnt_bits 64), the
/// count-slope products wrap (FoR value widths 64), and no signed sum
/// overflows, even at delta near 2^60.
Riblt WideRiblt(const RibltParams& params, Rng* rng) {
  Riblt table = RandomRiblt(params, 4, 3, rng);
  Riblt unit(params);
  PointStore one(params.dim);
  std::fill_n(one.AppendRow(), params.dim, Coord{0});
  unit.InsertMany(RandomKeys(1, rng), one);
  unit.DeleteMany(RandomKeys(1, rng), one);
  EXPECT_TRUE(table.AddScaled(unit, int64_t{1} << 62).ok());
  return table;
}

// ---- Tests ------------------------------------------------------------------

TEST(BitRunTest, MatchesStreamingReferenceAtEveryWidth) {
  Rng rng(301);
  for (int round = 0; round < 200; ++round) {
    // Field widths 0..128, each drawn so that 0, 1, 63, 64, 65 and 128 all
    // occur; values fill their widths.
    std::vector<int> widths(1 + rng.Below(40));
    std::vector<U128> values(widths.size());
    size_t nbits = 0;
    for (size_t i = 0; i < widths.size(); ++i) {
      static constexpr int kEdges[] = {0, 1, 7, 8, 56, 57, 63, 64, 65, 128};
      widths[i] = rng.Below(2) == 0 ? kEdges[rng.Below(10)]
                                    : static_cast<int>(rng.Below(129));
      const U128 v = (static_cast<U128>(rng.Next()) << 64) | rng.Next();
      values[i] = v & Low<U128>(widths[i]);
      nbits += static_cast<size_t>(widths[i]);
    }
    std::vector<uint8_t> ref = {0xa5};  // a byte before the run
    RefBitWriter ref_bits(&ref);
    for (size_t i = 0; i < widths.size(); ++i) {
      ref_bits.PutBits128(values[i], widths[i]);
    }
    ref_bits.AlignToByte();

    ByteWriter w;
    w.PutU8(0xa5);
    w.Reserve(ref.size());
    w.PutBitRun(nbits, [&](BitRunWriter& bits) {
      for (size_t i = 0; i < widths.size(); ++i) {
        if (widths[i] <= 64) {
          bits.Put(static_cast<uint64_t>(values[i]), widths[i]);
        } else {
          bits.Put128(values[i], widths[i]);
        }
      }
    });
    ASSERT_EQ(w.buffer(), ref);

    ByteReader r(ref);
    EXPECT_EQ(r.GetU8(), 0xa5);
    std::vector<U128> got;
    r.GetBitRun(nbits, [&](BitRunReader& bits) {
      for (int width : widths) {
        got.push_back(width <= 64 ? bits.Get(width) : bits.Get128(width));
      }
    });
    EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
    EXPECT_EQ(got, values);

    // One byte short of the run, or a set padding bit, poisons the reader
    // without calling the unpacker.
    if (nbits > 0) {
      ByteReader short_reader(ref.data(), ref.size() - 1);
      short_reader.GetU8();
      bool called = false;
      short_reader.GetBitRun(nbits, [&](BitRunReader&) { called = true; });
      EXPECT_FALSE(called);
      EXPECT_TRUE(short_reader.failed());
    }
    if (nbits % 8 != 0) {
      std::vector<uint8_t> padded = ref;
      padded.back() |= 0x80;
      ByteReader padded_reader(padded);
      padded_reader.GetU8();
      bool called = false;
      padded_reader.GetBitRun(nbits, [&](BitRunReader& bits) {
        called = true;
        for (int width : widths) bits.Get128(width);
      });
      EXPECT_FALSE(called);
      EXPECT_TRUE(padded_reader.failed());
    }
  }
}

TEST(CompactCodecOracleTest, RibltWriterMatchesReference) {
  // Every layout and width the writer can pick, over dims 1..33: light
  // tables (sparse), loaded ones (dense), tables after DeleteMany, wide ones
  // (64-bit count and value fields) and tables whose checksum mask a
  // 1-bit-checksum stream narrowed.
  std::vector<int> modes;
  int max_cnt_bits = 0, max_key_bits = 0, max_val_bits = 0, min_chk_bits = 64;
  std::vector<size_t> dims;
  Rng rng(302);
  for (size_t dim : {1ul, 3ul, 16ul, 33ul}) {
    // At delta 2^60 - 1 the mod width reaches 64; there only light tables
    // are built, so that no cell's value sum overflows int64.
    for (int64_t delta : {int64_t{1}, int64_t{1023}, int64_t{1} << 40,
                          (int64_t{1} << 60) - 1}) {
      const bool light_only = delta > (int64_t{1} << 40);
      const RibltParams params = SmallRibltParams(dim, delta, 40 + dim);
      std::vector<Riblt> tables;
      tables.push_back(RandomRiblt(params, 4, 0, &rng));
      tables.push_back(RandomRiblt(params, 3, 3, &rng));
      tables.push_back(WideRiblt(params, &rng));
      tables.push_back(Riblt(params));
      if (!light_only) {
        tables.push_back(RandomRiblt(params, 160, 0, &rng));
        tables.push_back(RandomRiblt(params, 100, 90, &rng));
      }
      // Narrowed masks: parse a 1-bit-checksum stream of a table.
      {
        const Riblt loaded = RandomRiblt(params, light_only ? 5 : 60,
                                         light_only ? 2 : 10, &rng);
        const std::vector<uint8_t> crafted =
            RefWriteRiblt(DumpRiblt(loaded), dim, delta, {-1, 1});
        ByteReader r(crafted);
        Result<Riblt> parsed = Riblt::ReadFrom(&r, params, WireCodec::kCompact);
        ASSERT_TRUE(parsed.ok());
        tables.push_back(*parsed);
      }
      for (const Riblt& table : tables) {
        ByteWriter w;
        w.PutU8(0x5a);  // the body starts mid-buffer
        table.WriteTo(&w, WireCodec::kCompact);
        RefLayout layout;
        std::vector<uint8_t> ref = {0x5a};
        const std::vector<uint8_t> body =
            RefWriteRiblt(DumpRiblt(table), dim, delta, {}, &layout);
        ref.insert(ref.end(), body.begin(), body.end());
        ASSERT_EQ(w.buffer(), ref) << "dim " << dim << " delta " << delta;
        modes.push_back(layout.mode);
        max_cnt_bits = std::max(max_cnt_bits, layout.cnt_bits);
        max_key_bits = std::max(max_key_bits, layout.key_bits);
        max_val_bits = std::max(max_val_bits, layout.max_val_bits);
        min_chk_bits = std::min(min_chk_bits, layout.chk_bits);
      }
    }
  }
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_NE(std::find(modes.begin(), modes.end(), mode), modes.end())
        << "layout " << mode << " never chosen";
  }
  EXPECT_EQ(max_cnt_bits, 64);
  EXPECT_EQ(max_val_bits, 64);
  EXPECT_GT(max_key_bits, 64);
  EXPECT_EQ(min_chk_bits, 1);
}

TEST(CompactCodecOracleTest, RibltReaderMatchesReferenceOnEveryCorruption) {
  Rng rng(303);
  struct Case {
    RibltParams params;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  // 24-cell tables keep the sweep (about 9 parses per stream bit) small
  // enough for the sanitizer legs.
  for (size_t dim : {1ul, 3ul, 33ul}) {
    const RibltParams params = SmallRibltParams(dim, 1023, 50 + dim, 24);
    const Riblt light = RandomRiblt(params, 3, 2, &rng);
    const Riblt loaded = RandomRiblt(params, 50, 20, &rng);
    for (const Riblt* table : {&light, &loaded}) {
      // The writer's own choice, and at dim 3 every layout forced.
      for (int mode = -1; mode < (dim == 3 ? 4 : 0); ++mode) {
        cases.push_back(
            {params, RefWriteRiblt(DumpRiblt(*table), dim, 1023, {mode, 0})});
      }
    }
  }
  {
    const RibltParams params = SmallRibltParams(3, int64_t{1} << 40, 60, 24);
    const RibltCells wide = DumpRiblt(WideRiblt(params, &rng));
    cases.push_back({params, RefWriteRiblt(wide, 3, params.delta, {0, 0})});
    cases.push_back({params, RefWriteRiblt(wide, 3, params.delta, {3, 0})});
    const RibltCells loaded = DumpRiblt(RandomRiblt(params, 20, 20, &rng));
    cases.push_back({params, RefWriteRiblt(loaded, 3, params.delta, {-1, 1})});
    // chk_bits 64 exceeds the bound for this cell count: both reject it.
    const std::vector<uint8_t> too_wide =
        RefWriteRiblt(loaded, 3, params.delta, {0, 64});
    EXPECT_FALSE(RibltReadersAgree(too_wide, params));
  }
  for (const Case& c : cases) {
    ASSERT_TRUE(RibltReadersAgree(c.bytes, c.params));
    size_t parsed = 0, total = 0;
    ForEachCorruption(c.bytes, [&](const std::vector<uint8_t>& bytes) {
      if (RibltReadersAgree(bytes, c.params)) ++parsed;
      ++total;
    });
    // Both outcomes occur: flips inside packed fields mostly still parse.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, total);
    if (::testing::Test::HasFailure()) return;
  }
}

IbltParams SmallIbltParams(size_t value_size, int checksum_bytes,
                           uint64_t seed) {
  IbltParams params;
  params.num_cells = 64;
  params.num_hashes = 4;
  params.value_size = value_size;
  params.checksum_bytes = checksum_bytes;
  params.seed = seed;
  return params;
}

/// inserts keys in, deletes others; keys end in `shift` zero bits.
Iblt RandomIblt(const IbltParams& params, size_t inserts, size_t deletes,
                int shift, Rng* rng) {
  Iblt table(params);
  std::vector<uint8_t> value(params.value_size);
  for (size_t i = 0; i < inserts + deletes; ++i) {
    const uint64_t key = (rng->Next() | 1) << shift;
    for (auto& b : value) b = static_cast<uint8_t>(rng->Next());
    if (i < inserts) {
      table.InsertKv(key, value);
    } else {
      table.DeleteKv(key, value);
    }
  }
  return table;
}

TEST(CompactCodecOracleTest, IbltWriterAndReaderMatchReference) {
  Rng rng(304);
  int max_shift = 0;
  std::vector<int> modes;
  for (size_t value_size : {0ul, 5ul}) {
    for (int checksum_bytes : {1, 4, 8}) {
      const IbltParams params =
          SmallIbltParams(value_size, checksum_bytes, 70 + value_size);
      std::vector<Iblt> tables;
      tables.push_back(RandomIblt(params, 3, 2, 0, &rng));
      tables.push_back(RandomIblt(params, 3, 0, 9, &rng));
      tables.push_back(RandomIblt(params, 80, 60, 0, &rng));
      tables.push_back(RandomIblt(params, 60, 0, 5, &rng));
      tables.push_back(Iblt(params));
      for (const Iblt& table : tables) {
        ByteWriter w;
        table.WriteTo(&w, WireCodec::kCompact);
        RefLayout layout;
        const IbltCells cells = DumpIblt(table);
        ASSERT_EQ(w.buffer(), RefWriteIblt(cells, params, {}, &layout));
        max_shift = std::max(max_shift, layout.key_shift);
        modes.push_back(layout.mode);
      }
      // Sweep a light and a loaded table, each in its own layout and the
      // other one, plus a 1-bit-checksum stream (at one checksum width, to
      // keep the sweep small).
      if (checksum_bytes != 4) continue;
      const IbltCells light = DumpIblt(tables[0]);
      const IbltCells loaded = DumpIblt(tables[2]);
      for (const std::vector<uint8_t>& bytes :
           {RefWriteIblt(light, params), RefWriteIblt(light, params, {0, 0}),
            RefWriteIblt(loaded, params), RefWriteIblt(loaded, params, {1, 0}),
            RefWriteIblt(loaded, params, {-1, 1})}) {
        ASSERT_TRUE(IbltReadersAgree(bytes, params));
        ForEachCorruption(bytes, [&](const std::vector<uint8_t>& corrupt) {
          IbltReadersAgree(corrupt, params);
        });
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GE(max_shift, 5);
  EXPECT_NE(std::find(modes.begin(), modes.end(), 0), modes.end());
  EXPECT_NE(std::find(modes.begin(), modes.end(), 1), modes.end());
}

TEST(CompactCodecOracleTest, StrataWriterAndReaderMatchReference) {
  StrataParams params;
  params.num_strata = 6;
  params.cells_per_stratum = 16;
  params.num_hashes = 4;
  params.checksum_bytes = 2;
  params.seed = 75;
  const std::vector<IbltParams> strata = StrataIbltParams(params);
  StrataEstimator est(params);
  Rng rng(305);
  const std::vector<uint64_t> keys = RandomKeys(80, &rng);
  const std::vector<uint64_t> gone = RandomKeys(30, &rng);
  est.InsertMany(keys);
  est.DeleteMany(gone);

  auto ref_write = [&](const std::vector<IbltCells>& cells) {
    std::vector<uint8_t> out;
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::vector<uint8_t> one = RefWriteIblt(cells[i], strata[i]);
      out.insert(out.end(), one.begin(), one.end());
    }
    return out;
  };
  ByteWriter w;
  est.WriteTo(&w, WireCodec::kCompact);
  const std::vector<uint8_t> bytes = w.buffer();
  ASSERT_EQ(bytes, ref_write(DumpStrata(est)));

  size_t parsed_count = 0;
  auto agree = [&](const std::vector<uint8_t>& stream) {
    size_t pos = 0;
    std::vector<IbltCells> ref;
    bool ref_ok = true;
    for (const IbltParams& p : strata) {
      std::optional<IbltCells> one =
          RefReadIblt(stream, &pos, p, Iblt(p).num_cells());
      if (!one.has_value()) {
        ref_ok = false;
        break;
      }
      ref.push_back(*one);
    }
    ByteReader r(stream);
    Result<StrataEstimator> parsed =
        StrataEstimator::ReadFrom(&r, params, WireCodec::kCompact);
    ASSERT_EQ(parsed.ok(), ref_ok);
    if (!ref_ok) return;
    ++parsed_count;
    EXPECT_EQ(stream.size() - r.remaining(), pos);
    // Cells through the classic dump, masks through a compact re-encode.
    std::vector<IbltCells> got = DumpStrata(*parsed);
    for (size_t i = 0; i < got.size(); ++i) {
      got[i].checksum_mask = ref[i].checksum_mask;
    }
    EXPECT_TRUE(got == ref);
    ByteWriter again;
    parsed->WriteTo(&again, WireCodec::kCompact);
    EXPECT_EQ(again.buffer(), ref_write(ref));
  };
  agree(bytes);
  ASSERT_EQ(parsed_count, 1u);
  ForEachCorruption(bytes, agree);
  EXPECT_GT(parsed_count, 1u);
}

}  // namespace
}  // namespace rsr
