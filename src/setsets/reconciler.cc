#include "setsets/reconciler.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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

/// Occurrence-salted element words for the elements of a collection of sets,
/// in canonical (sorted-set) order so both parties salt identically.
std::vector<uint64_t> SaltedElementWords(std::vector<SlottedSet> sets) {
  std::sort(sets.begin(), sets.end());
  std::unordered_map<uint64_t, uint32_t> occurrence;
  std::vector<uint64_t> words;
  words.reserve(sets.size() * (sets.empty() ? 0 : sets[0].size()));
  for (const SlottedSet& set : sets) {
    for (size_t slot = 0; slot < set.size(); ++slot) {
      uint64_t unsalted = (static_cast<uint64_t>(slot) << 32) | set[slot];
      uint32_t occ = occurrence[unsalted]++;
      RSR_CHECK(occ < kMaxOccurrences);
      words.push_back(
          EncodeElement(occ, static_cast<uint32_t>(slot), set[slot]));
    }
  }
  return words;
}

struct SetRecord {
  uint64_t signature = 0;
  std::vector<uint32_t> fingerprints;
};

/// DFS reconstruction of one set from per-slot candidate lists, verified by
/// the 64-bit set signature. Returns true and fills *out on success.
class SetReconstructor {
 public:
  SetReconstructor(const std::vector<std::vector<uint32_t>>& slot_candidates,
                   uint64_t target_signature, uint64_t salt,
                   size_t budget)
      : candidates_(slot_candidates),
        target_(target_signature),
        salt_(salt),
        budget_(budget) {}

  bool Run() {
    size_t slots = candidates_.size();
    // Order slots by branching factor so forced slots are fixed first.
    order_.resize(slots);
    for (size_t i = 0; i < slots; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return candidates_[a].size() < candidates_[b].size();
    });
    for (size_t i = 0; i < slots; ++i) {
      if (candidates_[i].empty()) return false;
    }
    result_.assign(slots, 0);
    // The signature is Mix64(acc ^ Mix64(salt + slots)); accumulate acc.
    return Dfs(0, 0);
  }

 private:
  uint64_t ElementHash(size_t slot, uint32_t value) const {
    return Mix64((static_cast<uint64_t>(slot) << 32) ^ value ^
                 Mix64(salt_ ^ 0x5e7516ULL));
  }

  bool Dfs(size_t depth, uint64_t acc) {
    if (budget_ == 0) return false;
    --budget_;
    if (depth == order_.size()) {
      uint64_t sig = Mix64(acc ^ Mix64(salt_ + order_.size()));
      return sig == target_;
    }
    size_t slot = order_[depth];
    for (uint32_t value : candidates_[slot]) {
      result_[slot] = value;
      if (Dfs(depth + 1, acc ^ ElementHash(slot, value))) return true;
    }
    return false;
  }

 public:
  SlottedSet result_;

 private:
  const std::vector<std::vector<uint32_t>>& candidates_;
  uint64_t target_;
  uint64_t salt_;
  size_t budget_;
  std::vector<size_t> order_;
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
    ByteWriter msg;
    msg.PutVarint64(bob_sets.size());
    for (const auto& s : bob_sets) WriteSet(&msg, s);
    transcript.Send("B->A full-transfer", msg);
    ByteReader reader(msg.buffer());
    report.bob_sets.clear();
    RSR_RETURN_NOT_OK(internal::ReadSets(&reader, slots, &report.bob_sets));
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

  // Bob resolves salted signature -> set index.
  std::unordered_map<uint64_t, size_t> bob_sig_to_index;
  for (size_t pos = 0; pos < bob_salted.size(); ++pos) {
    bob_sig_to_index[bob_salted[pos]] = bob_order[pos];
  }
  std::vector<size_t> requested;  // Bob's set indices Alice asked for
  {
    ByteReader reader(msg2.buffer());
    RSR_ASSIGN_OR_RETURN(std::vector<uint64_t> sigs,
                         ReadKeyStream(&reader, codec, bob_salted.size()));
    for (uint64_t sig : sigs) {
      auto it = bob_sig_to_index.find(sig);
      if (it == bob_sig_to_index.end()) {
        return Status::ProtocolFailure(
            "requested signature unknown to Bob (sig-IBLT misdecode)");
      }
      requested.push_back(it->second);
    }
    RSR_RETURN_NOT_OK(reader.status());
  }

  // Alice's differing sets (contents she already has), for the candidate
  // pool and for removing them from her multiset later.
  std::unordered_map<uint64_t, size_t> alice_only_multiset;
  for (uint64_t sig : alice_only_sigs) alice_only_multiset[sig]++;
  std::vector<SlottedSet> alice_diff_sets;
  {
    auto remaining = alice_only_multiset;
    for (size_t pos = 0; pos < alice_salted.size(); ++pos) {
      auto it = remaining.find(alice_salted[pos]);
      if (it != remaining.end() && it->second > 0) {
        --it->second;
        alice_diff_sets.push_back(alice_sets[alice_order[pos]]);
      }
    }
  }

  std::vector<SlottedSet> recovered;  // Bob-only sets, as Alice obtains them

  if (params.mode == SetsReconcilerMode::kVerbatim) {
    // ---- Phase 3 (verbatim): Bob ships the requested sets. ----
    ByteWriter msg3;
    msg3.PutVarint64(requested.size());
    for (size_t index : requested) WriteSet(&msg3, bob_sets[index]);
    transcript.Send("B->A diff-sets", msg3);
    ByteReader reader(msg3.buffer());
    RSR_RETURN_NOT_OK(internal::ReadSets(&reader, slots, &recovered));
  } else {
    // ---- Phase 3 (fingerprint): element IBLT + per-set fingerprints. ----
    std::vector<SlottedSet> bob_diff_sets;
    bob_diff_sets.reserve(requested.size());
    for (size_t index : requested) bob_diff_sets.push_back(bob_sets[index]);

    std::vector<uint64_t> bob_words = SaltedElementWords(bob_diff_sets);
    std::vector<uint64_t> alice_words = SaltedElementWords(alice_diff_sets);

    // Decoded aggregate element diff (Bob side): slot -> values (multiset).
    std::vector<std::vector<uint32_t>> bob_pool(slots);
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
      int fp_bytes = (params.fingerprint_bits + 7) / 8;
      for (const SlottedSet& set : bob_diff_sets) {
        msg3.PutU64(SetSignature(set, salt));
        for (size_t slot = 0; slot < slots; ++slot) {
          uint32_t fp =
              ElementFingerprint(static_cast<uint32_t>(slot), set[slot], salt,
                                 params.fingerprint_bits);
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

      std::vector<SetRecord> records(bob_diff_sets.size());
      for (auto& record : records) {
        record.signature = reader.GetU64();
        record.fingerprints.resize(slots);
        for (size_t slot = 0; slot < slots; ++slot) {
          uint32_t fp = 0;
          for (int b = 0; b < fp_bytes; ++b) {
            fp |= static_cast<uint32_t>(reader.GetU8()) << (8 * b);
          }
          record.fingerprints[slot] = fp;
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
        for (int64_t c = 0; c < e.count; ++c) {
          bob_pool[slot].push_back(value);
        }
        report.diff_elements += static_cast<size_t>(e.count);
      }
      elem_decoded = true;

      // Candidate values per slot: Bob-side pool plus Alice's differing
      // sets' entries (covers elements that canceled in the aggregate).
      std::vector<std::vector<uint32_t>> slot_candidates(slots);
      for (size_t slot = 0; slot < slots; ++slot) {
        std::unordered_set<uint32_t> dedup(bob_pool[slot].begin(),
                                           bob_pool[slot].end());
        for (const SlottedSet& set : alice_diff_sets) dedup.insert(set[slot]);
        slot_candidates[slot].assign(dedup.begin(), dedup.end());
        std::sort(slot_candidates[slot].begin(), slot_candidates[slot].end());
      }

      // Reconstruct each requested set.
      std::vector<size_t> failed;  // indices into `requested`
      for (size_t i = 0; i < records.size(); ++i) {
        const SetRecord& record = records[i];
        std::vector<std::vector<uint32_t>> filtered(slots);
        for (size_t slot = 0; slot < slots; ++slot) {
          for (uint32_t value : slot_candidates[slot]) {
            if (ElementFingerprint(static_cast<uint32_t>(slot), value, salt,
                                   params.fingerprint_bits) ==
                record.fingerprints[slot]) {
              filtered[slot].push_back(value);
            }
          }
        }
        SetReconstructor reconstructor(filtered, record.signature, salt,
                                       params.dfs_budget);
        if (reconstructor.Run()) {
          recovered.push_back(reconstructor.result_);
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
        for (size_t i : failed) WriteSet(&msg5, bob_diff_sets[i]);
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
      ByteWriter msg;
      msg.PutVarint64(bob_diff_sets.size());
      for (const auto& s : bob_diff_sets) WriteSet(&msg, s);
      transcript.Send("B->A diff-sets(fallback)", msg);
      ByteReader reader(msg.buffer());
      RSR_RETURN_NOT_OK(internal::ReadSets(&reader, slots, &recovered));
      report.fallback_sets = bob_diff_sets.size();
    }
  }

  // ---- Assemble Bob's multiset: (Alice's sets minus Alice-only) + diff. ----
  {
    auto remaining = alice_only_multiset;
    for (size_t pos = 0; pos < alice_salted.size(); ++pos) {
      auto it = remaining.find(alice_salted[pos]);
      if (it != remaining.end() && it->second > 0) {
        --it->second;
        continue;  // Bob lacks this one
      }
      report.bob_sets.push_back(alice_sets[alice_order[pos]]);
    }
  }
  for (auto& set : recovered) report.bob_sets.push_back(std::move(set));

  report.comm = transcript.stats();
  return report;
}

}  // namespace rsr
