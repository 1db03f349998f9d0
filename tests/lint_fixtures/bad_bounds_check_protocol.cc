// Known-bad fixture for the bounds-check rule outside decode bodies: a
// protocol function (not a Read* function) parses a message count and lets
// it bound a loop. lint_invariants_test.py asserts one finding.
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace rsr {

// BAD: a forged `count` (say 2^40 in a 10-byte message) grows `out` until
// memory runs out; the reader only fails after the damage is done.
Status ApplyPeerMessage(const std::vector<uint8_t>& message,
                        std::vector<uint64_t>* out) {
  ByteReader reader(message);
  uint64_t count = reader.GetVarint64();
  for (uint64_t i = 0; i < count; ++i) out->push_back(reader.GetU64());
  return reader.status();
}

}  // namespace rsr
