// Known-good fixture for the reader-check rule on a bit run: the sticky
// state is checked after GetBitRun, before its fields are trusted.
#include <cstdint>

#include "util/serialize.h"
#include "util/status.h"

namespace rsr {

Status ReadCells(ByteReader* r, uint64_t* cells, size_t n, int width) {
  r->GetBitRun(n * static_cast<size_t>(width), [&](BitRunReader& bits) {
    for (size_t i = 0; i < n; ++i) cells[i] = bits.Get(width);
  });
  return r->status();
}

}  // namespace rsr
