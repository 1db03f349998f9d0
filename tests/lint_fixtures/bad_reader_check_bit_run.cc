// Known-bad fixture for the reader-check rule on a bit run: GetBitRun skips
// its unpacker when the buffer is short or the padding is nonzero, so the
// fields stay zero and only the reader's sticky state says the parse
// failed. lint_invariants_test.py asserts exactly one reader-check finding
// here.
#include <cstdint>

#include "util/serialize.h"

namespace rsr {

void ReadCells(ByteReader* r, uint64_t* cells, size_t n, int width) {
  r->GetBitRun(n * static_cast<size_t>(width), [&](BitRunReader& bits) {
    for (size_t i = 0; i < n; ++i) cells[i] = bits.Get(width);
  });
  // BAD: the caller cannot tell zeroed cells from a parsed run.
}

}  // namespace rsr
