// Known-good fixture for the bounds-check rule outside decode bodies: the
// protocol function bounds the parsed count by the bytes left in the message
// (ByteReader::CountFits) before the count bounds the loop.
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace rsr {

Status ApplyPeerMessage(const std::vector<uint8_t>& message,
                        std::vector<uint64_t>* out) {
  ByteReader reader(message);
  uint64_t count = reader.GetVarint64();
  if (!reader.CountFits(count, sizeof(uint64_t))) {
    return Status::Corruption("count exceeds the message");
  }
  for (uint64_t i = 0; i < count; ++i) out->push_back(reader.GetU64());
  return reader.status();
}

}  // namespace rsr
