// Checked binary serialization.
//
// Every protocol message in this library is materialized through ByteWriter
// so that communication is *measured*, not estimated: CommStats counts the
// exact bytes produced here. Encoding: little-endian fixed ints, LEB128
// varints, zigzag for signed varints.
//
// The compact wire codec (util/wire.h, docs/WIRE.md) packs sketch cells at
// data-derived widths as one bounded bit run per table: the encoder knows
// the run's exact bit count before it writes the first field, so
// ByteWriter::PutBitRun appends exactly that many bits (fields LSB-first,
// packed a whole 64-bit word at a time, the last byte zero-padded) and
// ByteReader::GetBitRun takes exactly that many bytes or poisons the reader.
// Every run is whole bytes, so byte-level accessors never see a partial
// byte.
//
// ByteReader uses a sticky error flag: reads past the end (or failed
// validation) mark the reader failed and return zero values; callers check
// status() once at the end of a decode sequence.
#ifndef RSR_UTIL_SERIALIZE_H_
#define RSR_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace rsr {

namespace serialize_internal {

inline void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// The low n (0..64) bits set.
inline uint64_t LowMask(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

}  // namespace serialize_internal

/// Packs fields LSB-first into one bit run of a fixed bit count (handed out
/// by ByteWriter::PutBitRun). Whole 64-bit words go to the buffer as they
/// fill; a word store past the run's end is a CHECK failure, so a fill that
/// writes more bits than it declared can never touch bytes outside the run.
class BitRunWriter {
 public:
  /// Appends the low n (0..64) bits of v; v has no set bit at or above n.
  void Put(uint64_t v, int n) {
    RSR_DCHECK(n >= 0 && n <= 64);
    RSR_DCHECK(n == 64 || (v >> n) == 0);
    acc_ |= v << count_;  // count_ < 64
    const int total = count_ + n;
    if (total < 64) {
      count_ = total;
      return;
    }
    RSR_CHECK(end_ - p_ >= 8);
    serialize_internal::StoreLe64(p_, acc_);
    p_ += 8;
    acc_ = (v >> 1) >> (63 - count_);  // v >> (64 - count_), 0 when that is 64
    count_ = total - 64;
  }
  /// 128-bit analogue (n in 0..128) for wide packed fields (RIBLT key sums).
  void Put128(unsigned __int128 v, int n) {
    if (n > 64) {
      Put(static_cast<uint64_t>(v), 64);
      Put(static_cast<uint64_t>(v >> 64), n - 64);
    } else {
      RSR_DCHECK((v >> 64) == 0);
      Put(static_cast<uint64_t>(v), n);
    }
  }

 private:
  friend class ByteWriter;
  BitRunWriter(uint8_t* begin, uint8_t* end)
      : begin_(begin), p_(begin), end_(end) {}
  /// CHECKs that exactly nbits were put, then stores the partial word's
  /// bytes; its bits above count_ are zero, which is the byte's padding.
  void Finish(size_t nbits) {
    RSR_CHECK(static_cast<size_t>(p_ - begin_) * 8 +
                  static_cast<size_t>(count_) ==
              nbits);
    for (int shift = 0; shift < count_; shift += 8) {
      *p_++ = static_cast<uint8_t>(acc_ >> shift);
    }
  }

  uint8_t* const begin_;
  uint8_t* p_;
  uint8_t* const end_;
  uint64_t acc_ = 0;  // pending bits: count_ < 64 of them, zero above
  int count_ = 0;
};

/// Unpacks fields LSB-first from one bit run (handed out by
/// ByteReader::GetBitRun), a whole 64-bit word per load. Loads never leave
/// the run: a field that reaches past its end is a CHECK failure.
class BitRunReader {
 public:
  /// The next n (0..64) bits.
  uint64_t Get(int n) {
    RSR_DCHECK(n >= 0 && n <= 64);
    if (n <= avail_) {
      const uint64_t v = acc_ & serialize_internal::LowMask(n);
      acc_ = n >= 64 ? 0 : acc_ >> n;
      avail_ -= n;
      return v;
    }
    return Refill(n);
  }
  /// 128-bit analogue (n in 0..128).
  unsigned __int128 Get128(int n) {
    if (n > 64) {
      const unsigned __int128 lo = Get(64);
      return lo | (static_cast<unsigned __int128>(Get(n - 64)) << 64);
    }
    return Get(n);
  }

 private:
  friend class ByteReader;
  BitRunReader(const uint8_t* begin, const uint8_t* end)
      : begin_(begin), p_(begin), end_(end) {}

  /// Get's slow path (avail_ < n): the field's low avail_ bits are pending,
  /// its other bits start the next word.
  uint64_t Refill(int n) {
    uint64_t word;
    int loaded;
    if (end_ - p_ >= 8) {
      word = serialize_internal::LoadLe64(p_);
      p_ += 8;
      loaded = 64;
    } else {
      word = 0;
      loaded = 0;
      for (; p_ < end_; ++p_, loaded += 8) {
        word |= static_cast<uint64_t>(*p_) << loaded;
      }
    }
    const int used = n - avail_;  // 1..64
    RSR_CHECK(used <= loaded);
    const uint64_t v =
        (acc_ | (word << avail_)) & serialize_internal::LowMask(n);
    acc_ = (word >> 1) >> (used - 1);  // word >> used, 0 when that is 64
    avail_ = loaded - used;
    return v;
  }
  /// CHECKs that exactly nbits were taken.
  void Finish(size_t nbits) const {
    RSR_CHECK(static_cast<size_t>(p_ - begin_) * 8 -
                  static_cast<size_t>(avail_) ==
              nbits);
  }

  const uint8_t* const begin_;
  const uint8_t* p_;
  const uint8_t* const end_;
  uint64_t acc_ = 0;  // avail_ pending bits, zero above
  int avail_ = 0;
};

/// Append-only binary encoder.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutVarint64(uint64_t v);
  /// LEB128 over 128 bits (up to 19 bytes; 1 byte for zero). Sketch cell
  /// sums are mostly small, so this is the wire format for RIBLT sums.
  void PutVarint128(unsigned __int128 v);
  /// Zigzag-encoded signed varint.
  void PutSignedVarint64(int64_t v);
  void PutBytes(const uint8_t* data, size_t len);

  /// Appends one bit run of exactly `nbits` bits, ceil(nbits / 8) bytes:
  /// fill(BitRunWriter&) puts the fields, LSB-first, and the last byte is
  /// zero-padded. A fill that puts any other number of bits is a CHECK
  /// failure. The run is written in place, so a buffer that Reserve()d room
  /// for it does not grow.
  template <typename Fill>
  void PutBitRun(size_t nbits, Fill&& fill) {
    const size_t start = buf_.size();
    buf_.resize(start + nbits / 8 + (nbits % 8 != 0 ? 1 : 0));
    BitRunWriter run(buf_.data() + start, buf_.data() + buf_.size());
    fill(run);
    run.Finish(nbits);
  }

  /// Pre-sizes the underlying buffer (capacity only). The warm serving path
  /// reserves last sync's message size so steady-shape encodes never
  /// reallocate (see EmdServeScratch).
  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  /// Drops content, keeps capacity — the pooled-writer reset.
  void Clear() { buf_.clear(); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size_bytes() const { return buf_.size(); }
  size_t size_bits() const { return buf_.size() * 8; }

 private:
  template <typename T>
  void PutFixed(T v) {
    uint8_t tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

/// Sticky-error binary decoder over a borrowed buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  uint64_t GetVarint64();
  unsigned __int128 GetVarint128();
  int64_t GetSignedVarint64();
  /// Copies len bytes into out; marks failure if insufficient data.
  void GetBytes(uint8_t* out, size_t len);

  /// Takes the next bit run of exactly `nbits` bits (ceil(nbits / 8) bytes,
  /// written by ByteWriter::PutBitRun) and calls unpack(BitRunReader&) to
  /// take its fields, which must total exactly nbits (else CHECK failure).
  /// A buffer too short for the run, a nonzero padding bit in its last byte
  /// (the writer always zero-pads, so accepting one would let two distinct
  /// streams decode to one value) or an already failed reader poisons the
  /// reader, and unpack is not called.
  template <typename Unpack>
  void GetBitRun(size_t nbits, Unpack&& unpack) {
    const size_t nbytes = nbits / 8 + (nbits % 8 != 0 ? 1 : 0);
    if (failed_ || len_ - pos_ < nbytes) {
      failed_ = true;
      return;
    }
    const uint8_t* const run = data_ + pos_;
    if (nbits % 8 != 0 && (run[nbytes - 1] >> (nbits % 8)) != 0) {
      failed_ = true;
      return;
    }
    pos_ += nbytes;
    BitRunReader bits(run, run + nbytes);
    unpack(bits);
    bits.Finish(nbits);
  }

  bool failed() const { return failed_; }
  size_t remaining() const { return len_ - pos_; }

  /// Marks the reader failed (sticky), e.g. after caller-side validation
  /// rejects a parsed value. All subsequent reads return zeros.
  void Invalidate() { failed_ = true; }

  /// Bounds a count parsed off the wire before it sizes a loop or an
  /// allocation: every item occupies at least min_item_bytes (>= 1), so a
  /// count above remaining() / min_item_bytes cannot be honest. Such a count
  /// (or an already failed reader) poisons the reader and returns false.
  bool CountFits(uint64_t count, size_t min_item_bytes) {
    if (failed_ || count > remaining() / min_item_bytes) failed_ = true;
    return !failed_;
  }

  /// OK iff no read overran the buffer. Call after a decode sequence.
  Status status() const {
    if (failed_) return Status::Corruption("read past end of buffer");
    return Status::OK();
  }

  /// OK iff fully consumed without error.
  Status FinishAndCheckConsumed() const {
    RSR_RETURN_NOT_OK(status());
    if (pos_ != len_) return Status::Corruption("trailing bytes in buffer");
    return Status::OK();
  }

 private:
  template <typename T>
  T GetFixed() {
    if (failed_ || len_ - pos_ < sizeof(T)) {
      failed_ = true;
      return T{0};
    }
    T v{0};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace rsr

#endif  // RSR_UTIL_SERIALIZE_H_
