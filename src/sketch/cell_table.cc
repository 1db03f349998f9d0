#include "sketch/cell_table.h"

#include <vector>

#include "hashing/kindependent.h"
#include "util/logging.h"
#include "util/random.h"

namespace rsr {
namespace sketch_internal {

CellMap::CellMap(size_t num_cells, int num_hashes, uint64_t seed,
                 uint64_t salt)
    : q_(static_cast<size_t>(num_hashes)) {
  RSR_CHECK(num_hashes >= 2);
  RSR_CHECK(num_hashes <= kMaxHashes);
  RSR_CHECK(num_cells > 0);
  subtable_mod_ = FastDiv61((num_cells + q_ - 1) / q_);
  Rng rng(seed ^ salt);
  for (size_t j = 0; j < q_; ++j) {
    // The polynomial family keeps both parties' functions identical by
    // seed; the drawn coefficients are copied into the flat inline array.
    KIndependentHash h = KIndependentHash::Draw(kIndexIndependence, &rng);
    for (int i = 0; i < kIndexIndependence; ++i) {
      coeffs_[j * kIndexIndependence + static_cast<size_t>(i)] =
          h.coeffs()[i];
    }
  }
}

namespace {

/// The calling thread's inclusion flags, shared by every compact writer and
/// reader (neither ever runs inside the other).
thread_local std::vector<uint8_t> flag_pool;

}  // namespace

// RSR_ZERO_ALLOC: warm serves reuse the thread's flags
// (SyncServerTest.WarmServeSerializeDoesNotAllocate).
uint8_t* CellFlags(size_t m) {
  flag_pool.assign(m, 0);
  return flag_pool.data();
}

void WriteCellBitmap(ByteWriter* w, const uint8_t* flags, size_t m) {
  for (size_t base = 0; base < m; base += 8) {
    uint8_t bits = 0;
    for (size_t i = 0; i < 8 && base + i < m; ++i) {
      if (flags[base + i]) bits |= static_cast<uint8_t>(1u << i);
    }
    w->PutU8(bits);
  }
}

const uint8_t* ReadCellBitmap(ByteReader* r, size_t m, bool sparse) {
  flag_pool.assign(m, 1);
  uint8_t* const included = flag_pool.data();
  if (!sparse) return included;
  for (size_t base = 0; base < m; base += 8) {
    const uint8_t bits = r->GetU8();
    for (size_t i = 0; i < 8; ++i) {
      if (base + i < m) {
        included[base + i] = (bits >> i) & 1;
      } else if ((bits >> i) & 1) {
        r->Invalidate();  // nonzero padding past the last cell
      }
    }
  }
  return included;
}

}  // namespace sketch_internal
}  // namespace rsr
