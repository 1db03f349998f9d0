// Communication transcript with exact bit accounting.
//
// Protocols in this library are executed in-process, but every message is
// serialized to real bytes before the receiving side parses it, and each
// message is recorded here. Benchmarks report these measured sizes against
// the paper's bit bounds. A "round" equals one message, matching the paper's
// convention ("the number of rounds ... is equal to the number of messages
// sent").
#ifndef RSR_CORE_TRANSCRIPT_H_
#define RSR_CORE_TRANSCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.h"
#include "util/wire.h"

namespace rsr {

struct MessageRecord {
  std::string label;   // e.g. "A->B level RIBLTs"
  size_t bytes = 0;
  /// Codec the message body was encoded under; lets benches attribute bytes
  /// per codec when comparing classic vs compact transcripts.
  WireCodec codec = WireCodec::kClassic;
};

struct CommStats {
  std::vector<MessageRecord> messages;

  size_t total_bytes() const {
    size_t sum = 0;
    for (const auto& m : messages) sum += m.bytes;
    return sum;
  }
  size_t total_bits() const { return total_bytes() * 8; }
  int rounds() const { return static_cast<int>(messages.size()); }

  /// Appends another protocol phase's messages (sequential composition).
  void Append(const CommStats& other) {
    messages.insert(messages.end(), other.messages.begin(),
                    other.messages.end());
  }
};

/// Records messages as they are "sent".
class Transcript {
 public:
  /// Records a message of `writer`'s current size.
  void Send(const std::string& label, const ByteWriter& writer,
            WireCodec codec = WireCodec::kClassic) {
    stats_.messages.push_back(
        MessageRecord{label, writer.size_bytes(), codec});
  }
  void SendBytes(const std::string& label, size_t bytes,
                 WireCodec codec = WireCodec::kClassic) {
    stats_.messages.push_back(MessageRecord{label, bytes, codec});
  }

  const CommStats& stats() const { return stats_; }

 private:
  CommStats stats_;
};

}  // namespace rsr

#endif  // RSR_CORE_TRANSCRIPT_H_
