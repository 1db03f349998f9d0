#include "util/serialize.h"

namespace rsr {

void ByteWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutVarint128(unsigned __int128 v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutSignedVarint64(int64_t v) {
  // Zigzag: maps small-magnitude signed values to small unsigned values.
  uint64_t encoded =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  PutVarint64(encoded);
}

void ByteWriter::PutBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void ByteWriter::PutBits(uint64_t v, int nbits) {
  RSR_CHECK(nbits >= 0 && nbits <= 64);
  if (nbits == 0) return;
  RSR_CHECK(nbits == 64 || (v >> nbits) == 0);
  // Invariant: bit_count_ < 8, so up to 56 bits append without overflowing
  // the 64-bit accumulator; wider fields go in two chunks.
  if (nbits > 56) {
    PutBits(v & 0xffffffffu, 32);
    PutBits(v >> 32, nbits - 32);
    return;
  }
  bit_buf_ |= v << bit_count_;
  bit_count_ += nbits;
  while (bit_count_ >= 8) {
    buf_.push_back(static_cast<uint8_t>(bit_buf_));
    bit_buf_ >>= 8;
    bit_count_ -= 8;
  }
}

void ByteWriter::PutBits128(unsigned __int128 v, int nbits) {
  RSR_CHECK(nbits >= 0 && nbits <= 128);
  if (nbits > 64) {
    PutBits(static_cast<uint64_t>(v), 64);
    PutBits(static_cast<uint64_t>(v >> 64), nbits - 64);
    return;
  }
  RSR_CHECK(nbits == 64 || (v >> nbits) == 0);
  PutBits(static_cast<uint64_t>(v), nbits);
}

void ByteWriter::AlignToByte() {
  if (bit_count_ > 0) {
    buf_.push_back(static_cast<uint8_t>(bit_buf_));
    bit_buf_ = 0;
    bit_count_ = 0;
  }
}

uint8_t ByteReader::GetU8() { return GetFixed<uint8_t>(); }
uint16_t ByteReader::GetU16() { return GetFixed<uint16_t>(); }
uint32_t ByteReader::GetU32() { return GetFixed<uint32_t>(); }
uint64_t ByteReader::GetU64() { return GetFixed<uint64_t>(); }

uint64_t ByteReader::GetVarint64() {
  if (bit_avail_ != 0) failed_ = true;  // byte-level read mid-bit-run
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (failed_ || pos_ >= len_ || shift > 63) {
      failed_ = true;
      return 0;
    }
    uint8_t byte = data_[pos_++];
    uint64_t payload = byte & 0x7f;
    // The tenth byte lands at shift 63, where only its low bit fits in the
    // word; the `|=` below would silently drop the rest, decoding a corrupted
    // stream to a wrong value instead of poisoning the reader.
    if (shift == 63 && (payload >> 1) != 0) {
      failed_ = true;
      return 0;
    }
    v |= payload << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

unsigned __int128 ByteReader::GetVarint128() {
  if (bit_avail_ != 0) failed_ = true;
  unsigned __int128 v = 0;
  int shift = 0;
  while (true) {
    if (failed_ || pos_ >= len_ || shift > 127) {
      failed_ = true;
      return 0;
    }
    uint8_t byte = data_[pos_++];
    uint64_t payload = byte & 0x7f;
    // Same overlong-final-byte rejection as GetVarint64: at shift 126 only
    // the low two payload bits survive the `|=`.
    if (shift == 126 && (payload >> 2) != 0) {
      failed_ = true;
      return 0;
    }
    v |= static_cast<unsigned __int128>(payload) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

int64_t ByteReader::GetSignedVarint64() {
  uint64_t encoded = GetVarint64();
  return static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
}

void ByteReader::GetBytes(uint8_t* out, size_t len) {
  if (failed_ || bit_avail_ != 0 || len_ - pos_ < len) {
    failed_ = true;
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

uint64_t ByteReader::GetBits(int nbits) {
  if (failed_ || nbits < 0 || nbits > 64) {
    failed_ = true;
    return 0;
  }
  if (nbits == 0) return 0;
  if (nbits > 56) {
    uint64_t lo = GetBits(32);
    uint64_t hi = GetBits(nbits - 32);
    return lo | (hi << 32);
  }
  while (bit_avail_ < nbits) {
    if (pos_ >= len_) {
      failed_ = true;
      return 0;
    }
    bit_buf_ |= static_cast<uint64_t>(data_[pos_++]) << bit_avail_;
    bit_avail_ += 8;
  }
  uint64_t v = bit_buf_ & (nbits == 64 ? ~uint64_t{0}
                                       : ((uint64_t{1} << nbits) - 1));
  bit_buf_ >>= nbits;
  bit_avail_ -= nbits;
  return v;
}

unsigned __int128 ByteReader::GetBits128(int nbits) {
  if (nbits < 0 || nbits > 128) {
    failed_ = true;
    return 0;
  }
  if (nbits > 64) {
    unsigned __int128 lo = GetBits(64);
    unsigned __int128 hi = GetBits(nbits - 64);
    return lo | (hi << 64);
  }
  return GetBits(nbits);
}

void ByteReader::AlignToByte() {
  // The writer zero-pads; any surviving nonzero bit means the stream was not
  // produced by the matching encoder (or was corrupted in flight).
  if (bit_buf_ != 0) failed_ = true;
  bit_buf_ = 0;
  bit_avail_ = 0;
}

}  // namespace rsr
