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

uint8_t ByteReader::GetU8() { return GetFixed<uint8_t>(); }
uint16_t ByteReader::GetU16() { return GetFixed<uint16_t>(); }
uint32_t ByteReader::GetU32() { return GetFixed<uint32_t>(); }
uint64_t ByteReader::GetU64() { return GetFixed<uint64_t>(); }

uint64_t ByteReader::GetVarint64() {
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
  if (failed_ || len_ - pos_ < len) {
    failed_ = true;
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

}  // namespace rsr
