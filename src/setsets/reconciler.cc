#include "setsets/reconciler.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>
#include <utility>

#include "core/adaptive.h"
#include "hashing/hash64.h"
#include "sketch/iblt.h"
#include "util/key_stream.h"

namespace rsr {

namespace {

void WriteSet(ByteWriter* w, const SlottedSet& set) {
  for (uint32_t v : set) w->PutU32(v);
}

SlottedSet ReadSet(ByteReader* r, size_t slots) {
  SlottedSet set(slots);
  // RSR_LINT_OK(reader-check): sticky poison checked by callers' r->status().
  for (auto& v : set) v = r->GetU32();
  return set;
}

/// The verbatim-set message: Bob sends sets[i], i in `indices`, as a varint
/// count and then each set's slots as u32, under `label`; Alice parses it
/// with internal::ReadSets and appends the sets to *out.
Status SendVerbatimSets(const std::vector<SlottedSet>& sets,
                        const std::vector<size_t>& indices, size_t slots,
                        const std::string& label, Transcript* transcript,
                        std::vector<SlottedSet>* out) {
  ByteWriter msg;
  msg.PutVarint64(indices.size());
  for (size_t index : indices) WriteSet(&msg, sets[index]);
  transcript->Send(label, msg);
  ByteReader reader(msg.buffer());
  return internal::ReadSets(&reader, slots, out);
}

/// Element key (slot << 32 | value) of slot `slot` holding `value`.
uint64_t ElementKey(size_t slot, uint32_t value) {
  return (static_cast<uint64_t>(slot) << 32) | value;
}

/// Map from element keys to V in one open-addressing table (linear
/// probing, doubled at half load), so tens of thousands of lookups allocate
/// a few flat buffers rather than one node per key.
template <typename V>
class ElementMap {
 public:
  ElementMap() : keys_(kInitialCapacity, kEmpty), values_(kInitialCapacity) {}

  /// The value of `key`, value-initialized on first use.
  V& operator[](uint64_t key) {
    size_t i = Position(key);
    if (keys_[i] == kEmpty) {
      if (2 * (size_ + 1) > keys_.size()) {
        Grow();
        i = Position(key);
      }
      keys_[i] = key;
      ++size_;
    }
    return values_[i];
  }

  /// The value of `key`, or null if it was never used.
  const V* Find(uint64_t key) const {
    const size_t i = Position(key);
    return keys_[i] == kEmpty ? nullptr : &values_[i];
  }

  /// The keys used, in ascending order.
  std::vector<uint64_t> SortedKeys() const {
    std::vector<uint64_t> out;
    out.reserve(size_);
    for (uint64_t key : keys_) {
      if (key != kEmpty) out.push_back(key);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  // Element keys use 48 bits, so an all-ones word never collides with one.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kInitialCapacity = 64;

  /// Where `key` is, or the empty slot where it would go.
  size_t Position(uint64_t key) const {
    const size_t mask = keys_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<uint64_t> old_keys(keys_.size() * 2, kEmpty);
    std::vector<V> old_values(values_.size() * 2);
    old_keys.swap(keys_);
    old_values.swap(values_);
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      const size_t i = Position(old_keys[j]);
      keys_[i] = old_keys[j];
      values_[i] = std::move(old_values[j]);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
};

/// Occurrence-salted element words for the elements of sets[i], i in
/// `members`, in canonical (sorted-set) order so both parties salt
/// identically. Sorts pointers, not copies: equal sets have equal contents,
/// so the words do not depend on how ties are ordered. InvalidArgument when
/// an element occurs kMaxOccurrences or more times: its occurrence index
/// would not fit the word.
Result<std::vector<uint64_t>> SaltedElementWords(
    const std::vector<SlottedSet>& sets, const std::vector<size_t>& members,
    size_t slots) {
  std::vector<const SlottedSet*> sorted(members.size());
  for (size_t i = 0; i < members.size(); ++i) sorted[i] = &sets[members[i]];
  std::sort(sorted.begin(), sorted.end(),
            [](const SlottedSet* a, const SlottedSet* b) { return *a < *b; });
  ElementMap<uint32_t> occurrence;
  std::vector<uint64_t> words;
  words.reserve(sorted.size() * slots);
  for (const SlottedSet* set : sorted) {
    for (size_t slot = 0; slot < slots; ++slot) {
      const uint32_t value = (*set)[slot];
      const uint32_t occ = occurrence[ElementKey(slot, value)]++;
      if (occ >= kMaxOccurrences) {
        return Status::InvalidArgument(
            "a set element repeats kMaxOccurrences or more times");
      }
      words.push_back(EncodeElement(occ, static_cast<uint32_t>(slot), value));
    }
  }
  return words;
}

/// Per-slot candidate values, indexed by fingerprint: `values`
/// holds every slot's candidates sorted by (slot, fingerprint, value), and
/// `groups` maps ElementKey(slot, fingerprint) to its run [first, last).
/// Each candidate is fingerprinted once, however many records look it up.
struct FingerprintIndex {
  std::vector<uint32_t> values;
  ElementMap<std::pair<size_t, size_t>> groups;

  /// Slot `slot`'s candidates with fingerprint `fp`, in ascending value
  /// order: the list a scan of the sorted candidates filtered by `fp` gives.
  std::span<const uint32_t> Lookup(size_t slot, uint32_t fp) const {
    const std::pair<size_t, size_t>* run = groups.Find(ElementKey(slot, fp));
    if (run == nullptr) return {};
    return {values.data() + run->first, run->second - run->first};
  }
};

/// Indexes the candidate values of every slot: the element keys Bob's side
/// decoded plus Alice's differing sets' entries (covers elements that
/// canceled in the aggregate), deduplicated.
FingerprintIndex BuildFingerprintIndex(const std::vector<uint64_t>& bob_elements,
                                       const std::vector<SlottedSet>& alice_sets,
                                       const std::vector<size_t>& alice_diff,
                                       size_t slots, uint64_t salt, int bits) {
  ElementMap<uint8_t> seen;
  for (uint64_t key : bob_elements) seen[key] = 1;
  for (size_t a : alice_diff) {
    for (size_t slot = 0; slot < slots; ++slot) {
      seen[ElementKey(slot, alice_sets[a][slot])] = 1;
    }
  }
  // (ElementKey(slot, fingerprint), value) of every distinct candidate,
  // sorted.
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (uint64_t key : seen.SortedKeys()) {
    const auto slot = static_cast<uint32_t>(key >> 32);
    const auto value = static_cast<uint32_t>(key);
    entries.emplace_back(
        ElementKey(slot, ElementFingerprint(slot, value, salt, bits)), value);
  }
  std::sort(entries.begin(), entries.end());
  FingerprintIndex index;
  index.values.reserve(entries.size());
  for (const auto& [group, value] : entries) index.values.push_back(value);
  for (size_t first = 0; first < entries.size();) {
    size_t last = first + 1;
    while (last < entries.size() && entries[last].first == entries[first].first) {
      ++last;
    }
    index.groups[entries[first].first] = {first, last};
    first = last;
  }
  return index;
}

/// DFS reconstruction of one set from per-slot candidate lists, verified by
/// the 64-bit set signature. One reconstructor serves every record of an
/// exchange, so its buffers are allocated once.
class SetReconstructor {
 public:
  SetReconstructor(size_t slots, uint64_t salt)
      : hash_(salt), order_(slots), result_(slots, 0) {}

  /// Tries to rebuild the set with signature `target` from `candidates`
  /// (one list per slot) within `budget` DFS nodes. On success the set is
  /// in result().
  bool Run(const std::vector<std::span<const uint32_t>>& candidates,
           uint64_t target, size_t budget) {
    candidates_ = &candidates;
    target_ = target;
    budget_ = budget;
    const size_t slots = candidates.size();
    // Order slots by branching factor so forced slots are fixed first.
    for (size_t i = 0; i < slots; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&candidates](size_t a, size_t b) {
      return candidates[a].size() < candidates[b].size();
    });
    for (size_t i = 0; i < slots; ++i) {
      if (candidates[i].empty()) return false;
    }
    // Accumulate the signature's element XOR slot by slot.
    return Dfs(0, 0);
  }

  const SlottedSet& result() const { return result_; }

 private:
  bool Dfs(size_t depth, uint64_t acc) {
    if (budget_ == 0) return false;
    --budget_;
    if (depth == order_.size()) {
      return hash_.Finish(acc, order_.size()) == target_;
    }
    size_t slot = order_[depth];
    for (uint32_t value : (*candidates_)[slot]) {
      result_[slot] = value;
      if (Dfs(depth + 1, acc ^ hash_.Element(slot, value))) return true;
    }
    return false;
  }

  const SetSignatureHash hash_;
  std::vector<size_t> order_;
  SlottedSet result_;
  const std::vector<std::span<const uint32_t>>* candidates_ = nullptr;
  uint64_t target_ = 0;
  size_t budget_ = 0;
};

}  // namespace

namespace internal {

Status ReadSets(ByteReader* r, size_t slots, std::vector<SlottedSet>* out) {
  const uint64_t count = r->GetVarint64();
  if (!r->CountFits(count, slots * sizeof(uint32_t))) {
    return Status::Corruption("set count exceeds the message");
  }
  for (uint64_t i = 0; i < count; ++i) out->push_back(ReadSet(r, slots));
  return r->status();
}

}  // namespace internal

Result<SetsReconcilerReport> ReconcileSetsOfSets(
    const std::vector<SlottedSet>& alice_sets,
    const std::vector<SlottedSet>& bob_sets,
    const SetsReconcilerParams& params) {
  const size_t slots = alice_sets.empty()
                           ? (bob_sets.empty() ? 0 : bob_sets[0].size())
                           : alice_sets[0].size();
  if (slots == 0 || slots >= kMaxSlots) {
    return Status::InvalidArgument("slot count must be in [1, 2^16)");
  }
  if (params.mode == SetsReconcilerMode::kFingerprint &&
      (params.fingerprint_bits < 1 || params.fingerprint_bits > 32)) {
    return Status::InvalidArgument("fingerprint_bits must be in [1, 32]");
  }
  for (const auto& s : alice_sets) RSR_CHECK_EQ(s.size(), slots);
  for (const auto& s : bob_sets) RSR_CHECK_EQ(s.size(), slots);

  SetsReconcilerReport report;
  Transcript transcript;
  const uint64_t salt = params.seed;
  const WireCodec codec = params.codec;

  std::vector<size_t> alice_order;
  std::vector<uint64_t> alice_salted =
      CanonicalSaltedSignatures(alice_sets, salt, &alice_order);
  std::vector<size_t> bob_order;
  std::vector<uint64_t> bob_salted =
      CanonicalSaltedSignatures(bob_sets, salt, &bob_order);

  // ---- Phase 1: signature IBLT (Bob -> Alice), with doubling retries. ----
  std::vector<uint64_t> bob_only_sigs;    // salted sigs Alice is missing
  std::vector<uint64_t> alice_only_sigs;  // salted sigs Bob is missing
  bool sig_decoded = false;
  const size_t static_cells = std::max<size_t>(params.sig_cells, 8);
  size_t sig_cells = static_cells;

  // ---- Adaptive size negotiation (core/adaptive.h): Alice — the sig-IBLT
  // RECEIVER — ships a strata estimator over her salted signatures; Bob
  // estimates the difference, picks the starting cell count clamped to the
  // static sizing, and prepends it to his first sig-IBLT message (no
  // separate size round). The doubling retries below run from the negotiated
  // size and are extended until the ladder has tried at least the static
  // ladder's largest size, so an under-estimate costs rounds, never
  // correctness. Skipped when max_attempts <= 0: the sig phase never runs,
  // so a negotiated size would be pure wasted wire.
  const bool negotiate_sig = params.adaptive.enabled && params.max_attempts > 0;
  if (negotiate_sig) {
    RSR_ASSIGN_OR_RETURN(
        sig_cells,
        NegotiateSingleSketchCells(bob_salted, alice_salted, params.adaptive,
                                   HashCombine(salt, 0x51'ada'7ULL),
                                   static_cells, &transcript,
                                   "A->B sig-strata", codec));
  }
  // The static path tries static_cells << 0..(max_attempts-1); the adaptive
  // path may start lower, so its ladder keeps doubling past max_attempts
  // until it has covered the same largest size — a low estimate must never
  // turn a reconciliation the static path completes into a full transfer.
  // max_attempts <= 0 preserves the historical "no sig phase at all, go
  // straight to the full-transfer fallback" behavior (and keeps the ladder
  // shift nonnegative).
  const size_t last_static_cells =
      static_cells << std::min(std::max(params.max_attempts - 1, 0), 40);
  for (int attempt = 0; params.max_attempts > 0; ++attempt) {
    report.sig_attempts = attempt + 1;
    IbltParams sig_params;
    sig_params.num_cells = sig_cells;
    sig_params.num_hashes = params.num_hashes;
    sig_params.checksum_bytes = params.checksum_bytes;
    sig_params.seed = HashCombine(salt, 0x516'0000u + static_cast<uint32_t>(attempt));

    Iblt bob_table(sig_params);
    bob_table.InsertMany(bob_salted);
    ByteWriter msg1;
    // Without the adaptive estimator round, this is the exchange's first
    // message — a compact exchange writes its versioned header here (once;
    // retries are mid-exchange).
    if (codec != WireCodec::kClassic && !negotiate_sig && attempt == 0) {
      WriteWireHeader(codec, &msg1);
    }
    // The negotiated size rides as a prefix on the first sketch only;
    // retry sizes are already on the wire in the sig-resize messages.
    if (negotiate_sig && attempt == 0) {
      WriteNegotiatedCells({sig_cells}, &msg1);
    }
    msg1.PutVarint64(bob_salted.size());
    bob_table.WriteTo(&msg1, codec);
    transcript.Send("B->A sig-iblt", msg1, codec);

    // Alice parses and deletes her signatures.
    ByteReader reader(msg1.buffer());
    if (codec != WireCodec::kClassic && !negotiate_sig && attempt == 0) {
      RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
    }
    IbltParams parsed_sig_params = sig_params;
    if (negotiate_sig && attempt == 0) {
      RSR_ASSIGN_OR_RETURN(std::vector<size_t> parsed,
                           ReadNegotiatedCells(&reader, 1, static_cells));
      parsed_sig_params.num_cells = parsed[0];
    }
    uint64_t bob_count = reader.GetVarint64();
    (void)bob_count;
    RSR_ASSIGN_OR_RETURN(Iblt alice_view,
                         Iblt::ReadFrom(&reader, parsed_sig_params, codec));
    alice_view.DeleteMany(alice_salted);
    IbltDecodeResult decoded = alice_view.Decode();
    if (decoded.complete) {
      for (const IbltEntry& e : decoded.entries) {
        RSR_CHECK(e.count == 1 || e.count == -1);
        if (e.count > 0) {
          bob_only_sigs.push_back(e.key);
        } else {
          alice_only_sigs.push_back(e.key);
        }
      }
      sig_decoded = true;
      break;
    }
    // Retry request: Alice asks Bob for a bigger sketch (sent even after the
    // final attempt — historical behavior; the fallback decision is Bob's).
    ByteWriter retry;
    retry.PutVarint64(sig_cells * 2);
    transcript.Send("A->B sig-resize", retry);
    const bool ladders_exhausted =
        attempt + 1 >= params.max_attempts && sig_cells >= last_static_cells;
    sig_cells *= 2;
    if (ladders_exhausted) break;
  }

  if (!sig_decoded) {
    // Full-transfer fallback: Bob ships everything.
    std::vector<size_t> all(bob_sets.size());
    std::iota(all.begin(), all.end(), size_t{0});
    RSR_RETURN_NOT_OK(SendVerbatimSets(bob_sets, all, slots,
                                       "B->A full-transfer", &transcript,
                                       &report.bob_sets));
    report.full_transfer = true;
    report.comm = transcript.stats();
    return report;
  }

  report.diff_sets_bob = bob_only_sigs.size();
  report.diff_sets_alice = alice_only_sigs.size();

  // ---- Phase 2: Alice -> Bob, the salted signatures she is missing. ----
  // Classic = count + raw 64-bit signatures (historical bytes); compact = a
  // sorted varint-delta key stream, which hands Bob the request in ascending
  // signature order — the recovered multiset is order-insensitive.
  ByteWriter msg2;
  WriteKeyStream(bob_only_sigs, &msg2, codec);
  transcript.Send("A->B missing-sigs", msg2, codec);

  // Bob resolves salted signature -> set index through his (signature,
  // sorted position) pairs in ascending order. Within a run of equal
  // signatures the last position wins, as repeated map assignment would.
  std::vector<std::pair<uint64_t, size_t>> bob_sig_index(bob_salted.size());
  for (size_t pos = 0; pos < bob_salted.size(); ++pos) {
    bob_sig_index[pos] = {bob_salted[pos], pos};
  }
  std::sort(bob_sig_index.begin(), bob_sig_index.end());
  std::vector<size_t> requested;  // Bob's set indices Alice asked for
  {
    ByteReader reader(msg2.buffer());
    RSR_ASSIGN_OR_RETURN(std::vector<uint64_t> sigs,
                         ReadKeyStream(&reader, codec, bob_salted.size()));
    requested.reserve(sigs.size());
    for (uint64_t sig : sigs) {
      auto it = std::upper_bound(
          bob_sig_index.begin(), bob_sig_index.end(), sig,
          [](uint64_t v, const std::pair<uint64_t, size_t>& e) {
            return v < e.first;
          });
      if (it == bob_sig_index.begin() || std::prev(it)->first != sig) {
        return Status::ProtocolFailure(
            "requested signature unknown to Bob (sig-IBLT misdecode)");
      }
      requested.push_back(bob_order[std::prev(it)->second]);
    }
    RSR_RETURN_NOT_OK(reader.status());
  }

  // Alice's differing sets (contents she already has), for the candidate
  // pool and for removing them from her multiset later. Walking her sorted
  // positions, each decoded Alice-only signature claims the first unclaimed
  // position that carries it.
  std::sort(alice_only_sigs.begin(), alice_only_sigs.end());
  std::vector<char> claimed(alice_only_sigs.size(), 0);
  std::vector<char> alice_dropped(alice_salted.size(), 0);
  std::vector<size_t> alice_diff;  // indices into alice_sets
  alice_diff.reserve(alice_only_sigs.size());
  for (size_t pos = 0; pos < alice_salted.size(); ++pos) {
    auto it = std::lower_bound(alice_only_sigs.begin(), alice_only_sigs.end(),
                               alice_salted[pos]);
    for (; it != alice_only_sigs.end() && *it == alice_salted[pos]; ++it) {
      char& taken = claimed[static_cast<size_t>(it - alice_only_sigs.begin())];
      if (taken) continue;
      taken = 1;
      alice_dropped[pos] = 1;
      alice_diff.push_back(alice_order[pos]);
      break;
    }
  }

  std::vector<SlottedSet> recovered;  // Bob-only sets, as Alice obtains them
  recovered.reserve(requested.size());

  if (params.mode == SetsReconcilerMode::kVerbatim) {
    // ---- Phase 3 (verbatim): Bob ships the requested sets. ----
    RSR_RETURN_NOT_OK(SendVerbatimSets(bob_sets, requested, slots,
                                       "B->A diff-sets", &transcript,
                                       &recovered));
  } else {
    // ---- Phase 3 (fingerprint): element IBLT + per-set fingerprints. ----
    RSR_ASSIGN_OR_RETURN(const std::vector<uint64_t> bob_words,
                         SaltedElementWords(bob_sets, requested, slots));
    RSR_ASSIGN_OR_RETURN(const std::vector<uint64_t> alice_words,
                         SaltedElementWords(alice_sets, alice_diff, slots));
    const int bits = params.fingerprint_bits;
    const int fp_bytes = (bits + 7) / 8;

    // Bob-side elements of the decoded aggregate diff, as element keys
    // (candidates only, so copies are not repeated).
    std::vector<uint64_t> bob_elements;
    bool elem_decoded = false;
    size_t elem_cells = std::max<size_t>(params.elem_cells, 8);
    for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
      report.elem_attempts = attempt + 1;
      IbltParams elem_params;
      elem_params.num_cells = elem_cells;
      elem_params.num_hashes = params.num_hashes;
      elem_params.checksum_bytes = params.checksum_bytes;
      elem_params.seed = HashCombine(salt, 0xe1e'0000u + static_cast<uint32_t>(attempt));

      Iblt elem_table(elem_params);
      elem_table.InsertMany(bob_words);
      ByteWriter msg3;
      elem_table.WriteTo(&msg3, codec);
      // Per-set records: unsalted signature + per-slot fingerprints.
      for (size_t index : requested) {
        const SlottedSet& set = bob_sets[index];
        msg3.PutU64(SetSignature(set, salt));
        for (size_t slot = 0; slot < slots; ++slot) {
          uint32_t fp = ElementFingerprint(static_cast<uint32_t>(slot),
                                           set[slot], salt, bits);
          for (int b = 0; b < fp_bytes; ++b) {
            msg3.PutU8(static_cast<uint8_t>(fp >> (8 * b)));
          }
        }
      }
      transcript.Send("B->A elem-iblt+fps", msg3, codec);

      // Alice parses, deletes her differing sets' elements, decodes.
      ByteReader reader(msg3.buffer());
      RSR_ASSIGN_OR_RETURN(Iblt alice_view,
                           Iblt::ReadFrom(&reader, elem_params, codec));
      alice_view.DeleteMany(alice_words);
      IbltDecodeResult decoded = alice_view.Decode();

      // Record i: signatures[i], then its slots' fingerprints at
      // fingerprints[i * slots ...].
      std::vector<uint64_t> signatures(requested.size());
      std::vector<uint32_t> fingerprints(requested.size() * slots);
      for (size_t i = 0; i < requested.size(); ++i) {
        signatures[i] = reader.GetU64();
        for (size_t slot = 0; slot < slots; ++slot) {
          uint32_t fp = 0;
          for (int b = 0; b < fp_bytes; ++b) {
            fp |= static_cast<uint32_t>(reader.GetU8()) << (8 * b);
          }
          fingerprints[i * slots + slot] = fp;
        }
      }
      RSR_RETURN_NOT_OK(reader.status());

      if (!decoded.complete) {
        ByteWriter retry;
        retry.PutVarint64(elem_cells * 2);
        transcript.Send("A->B elem-resize", retry);
        elem_cells *= 2;
        continue;
      }

      for (const IbltEntry& e : decoded.entries) {
        if (e.count <= 0) continue;  // Alice-side surplus: already known
        uint32_t occ, slot, value;
        DecodeElement(e.key, &occ, &slot, &value);
        if (slot >= slots) {
          return Status::Corruption("decoded element has bad slot");
        }
        bob_elements.push_back(ElementKey(slot, value));
        report.diff_elements += static_cast<size_t>(e.count);
      }
      elem_decoded = true;

      // Reconstruct each requested set from its slots' fingerprint matches.
      const FingerprintIndex index = BuildFingerprintIndex(
          bob_elements, alice_sets, alice_diff, slots, salt, bits);
      SetReconstructor reconstructor(slots, salt);
      std::vector<std::span<const uint32_t>> candidates(slots);
      std::vector<size_t> failed;  // indices into `requested`
      for (size_t i = 0; i < requested.size(); ++i) {
        const uint32_t* record_fps = fingerprints.data() + i * slots;
        for (size_t slot = 0; slot < slots; ++slot) {
          candidates[slot] = index.Lookup(slot, record_fps[slot]);
        }
        if (reconstructor.Run(candidates, signatures[i], params.dfs_budget)) {
          recovered.push_back(reconstructor.result());
        } else {
          failed.push_back(i);
        }
      }

      // ---- Fallback round for unreconstructed sets. ----
      report.fallback_sets = failed.size();
      if (!failed.empty()) {
        ByteWriter msg4;
        msg4.PutVarint64(failed.size());
        for (size_t i : failed) msg4.PutVarint64(i);
        transcript.Send("A->B fallback-request", msg4);
        ByteWriter msg5;
        for (size_t i : failed) WriteSet(&msg5, bob_sets[requested[i]]);
        transcript.Send("B->A fallback-sets", msg5);
        ByteReader fb(msg5.buffer());
        for (size_t i = 0; i < failed.size(); ++i) {
          recovered.push_back(ReadSet(&fb, slots));
        }
        RSR_RETURN_NOT_OK(fb.status());
      }
      break;
    }

    if (!elem_decoded) {
      // Element phase never decoded: verbatim fallback for all requested.
      RSR_RETURN_NOT_OK(SendVerbatimSets(bob_sets, requested, slots,
                                         "B->A diff-sets(fallback)",
                                         &transcript, &recovered));
      report.fallback_sets = requested.size();
    }
  }

  // ---- Assemble Bob's multiset: (Alice's sets minus Alice-only) + diff. ----
  report.bob_sets.reserve(alice_salted.size() - alice_diff.size() +
                          recovered.size());
  for (size_t pos = 0; pos < alice_salted.size(); ++pos) {
    if (!alice_dropped[pos]) {
      report.bob_sets.push_back(alice_sets[alice_order[pos]]);
    }
  }
  for (auto& set : recovered) report.bob_sets.push_back(std::move(set));

  report.comm = transcript.stats();
  return report;
}

}  // namespace rsr
