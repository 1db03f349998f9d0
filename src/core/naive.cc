#include "core/naive.h"

#include <algorithm>
#include <unordered_map>

#include "core/adaptive.h"
#include "hashing/hash64.h"
#include "sketch/iblt.h"

namespace rsr {

NaiveReport RunNaiveFullTransfer(const PointStore& alice, const PointStore& bob,
                                 bool union_mode) {
  NaiveReport report;
  ByteWriter message;
  message.PutVarint64(alice.size());
  alice.WriteTo(&message);
  Transcript transcript;
  transcript.Send("A->B full point set", message);
  report.comm = transcript.stats();

  // Either side may be empty (and then possibly dimensionless); the other
  // one carries the dimension. Two empty sides leave an empty result.
  const size_t dim = alice.empty() ? bob.dim() : alice.dim();
  if (dim == 0) return report;
  ByteReader reader(message.buffer());
  const uint64_t count = reader.GetVarint64();
  PointStore received =
      PointStore::ReadFrom(&reader, dim, static_cast<size_t>(count));
  // The message is this function's own encoding of `alice`, so a parse
  // failure is a library bug rather than peer input.
  RSR_CHECK(reader.FinishAndCheckConsumed().ok());
  if (union_mode) {
    report.s_b_prime = PointStore(dim);
    report.s_b_prime.Reserve(bob.size() + received.size());
    report.s_b_prime.AppendStore(bob);
    report.s_b_prime.AppendStore(received);
  } else {
    report.s_b_prime = std::move(received);
  }
  return report;
}

namespace {

/// Packs row (dim coordinates) into out (dim*8 bytes, little-endian); the
/// caller reuses one buffer across the whole insert/delete loop so the
/// sketch hot path stays allocation-free.
void PackRowInto(const Coord* row, size_t dim, uint8_t* out) {
  for (size_t j = 0; j < dim; ++j) {
    uint64_t v = static_cast<uint64_t>(row[j]);
    for (size_t b = 0; b < 8; ++b) {
      out[j * 8 + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
}

/// Inverse of PackRowInto: writes the dim coordinates packed in `bytes`.
void UnpackRowInto(const std::vector<uint8_t>& bytes, size_t dim, Coord* out) {
  for (size_t j = 0; j < dim; ++j) {
    uint64_t v = 0;
    for (size_t b = 0; b < 8; ++b) {
      v |= static_cast<uint64_t>(bytes[j * 8 + b]) << (8 * b);
    }
    out[j] = static_cast<Coord>(v);
  }
}

/// Occurrence-salted content keys (canonical order: lexicographic). The
/// sorted copy lands in *sorted_out; key derivation is one arena pass.
std::vector<uint64_t> SaltedStoreKeys(const PointStore& points, uint64_t seed,
                                      PointStore* sorted_out) {
  PointStore sorted = points;
  sorted.SortLex();
  std::vector<uint64_t> keys(sorted.size());
  sorted.ContentHashMany(seed, keys.data());
  size_t run_start = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i] != sorted[i - 1]) run_start = i;
    keys[i] = HashCombine(keys[i], static_cast<uint64_t>(i - run_start));
  }
  *sorted_out = std::move(sorted);
  return keys;
}

}  // namespace

Result<ExactReconReport> RunExactIbltReconciliation(
    const PointStore& alice, const PointStore& bob,
    const ExactReconParams& params) {
  if (alice.empty() && bob.empty()) {
    return Status::InvalidArgument("both point sets empty");
  }
  if (params.num_cells == 0) {
    return Status::InvalidArgument("num_cells must be positive");
  }
  ExactReconReport report;

  RSR_CHECK(alice.empty() || alice.dim() == params.dim);
  RSR_CHECK(bob.empty() || bob.dim() == params.dim);

  PointStore alice_sorted;
  std::vector<uint64_t> alice_keys =
      SaltedStoreKeys(alice, params.seed, &alice_sorted);
  PointStore bob_sorted;
  std::vector<uint64_t> bob_keys =
      SaltedStoreKeys(bob, params.seed, &bob_sorted);

  Transcript transcript;

  // ---- Adaptive size negotiation (core/adaptive.h): Bob ships a strata
  // estimator over his salted keys (extra B->A round); Alice sizes the IBLT
  // from the estimated difference, capped at the static num_cells, and
  // prepends the chosen count to her sketch message.
  size_t negotiated_cells = params.num_cells;
  if (params.adaptive.enabled) {
    RSR_ASSIGN_OR_RETURN(
        negotiated_cells,
        NegotiateSingleSketchCells(alice_keys, bob_keys, params.adaptive,
                                   HashCombine(params.seed, 0xe6ac'ada'7ULL),
                                   params.num_cells, &transcript,
                                   "B->A exact strata"));
  }

  IbltParams iblt_params;
  iblt_params.num_hashes = params.num_hashes;
  iblt_params.value_size = params.dim * 8;
  iblt_params.seed = params.seed;

  std::unordered_map<uint64_t, size_t> bob_key_to_index;
  for (size_t i = 0; i < bob_sorted.size(); ++i) {
    bob_key_to_index[bob_keys[i]] = i;
  }

  // Candidate sizes: the negotiated count, then — adaptive only, after a
  // failed decode — the full static parameters. The retry reproduces the
  // static sketch exactly (same cells, same seed), so a low estimate costs
  // one extra exchange but never a reconciliation the static path would
  // have completed.
  std::vector<size_t> attempt_cells{negotiated_cells};
  if (params.adaptive.enabled && negotiated_cells < params.num_cells) {
    attempt_cells.push_back(params.num_cells);
  }

  std::vector<uint8_t> packed(iblt_params.value_size);
  IbltDecodeResult decoded;
  for (size_t attempt = 0; attempt < attempt_cells.size(); ++attempt) {
    if (attempt > 0) {
      // Bob's resize request: escalate to the static cap.
      ByteWriter retry;
      retry.PutVarint64(attempt_cells[attempt]);
      transcript.Send("B->A exact resize", retry);
    }
    iblt_params.num_cells = attempt_cells[attempt];
    Iblt table(iblt_params);
    for (size_t i = 0; i < alice_sorted.size(); ++i) {
      PackRowInto(alice_sorted.row(i), params.dim, packed.data());
      table.Update(alice_keys[i], packed.data(), +1);
    }
    ByteWriter message;
    if (params.adaptive.enabled) {
      WriteNegotiatedCells({attempt_cells[attempt]}, &message);
    }
    table.WriteTo(&message);
    transcript.Send("A->B exact IBLT", message);

    ByteReader reader(message.buffer());
    if (params.adaptive.enabled) {
      RSR_ASSIGN_OR_RETURN(
          std::vector<size_t> parsed,
          ReadNegotiatedCells(&reader, 1, params.num_cells));
      iblt_params.num_cells = parsed[0];
    }
    RSR_ASSIGN_OR_RETURN(Iblt received, Iblt::ReadFrom(&reader, iblt_params));
    for (size_t i = 0; i < bob_sorted.size(); ++i) {
      PackRowInto(bob_sorted.row(i), params.dim, packed.data());
      received.Update(bob_keys[i], packed.data(), -1);
    }
    decoded = received.Decode();
    if (decoded.complete) break;
  }
  report.comm = transcript.stats();
  if (!decoded.complete) {
    report.failure = true;
    return report;
  }
  report.diff_size = decoded.entries.size();

  std::vector<char> removed(bob_sorted.size(), 0);
  size_t inserted = 0;
  for (const IbltEntry& entry : decoded.entries) {
    if (entry.count > 0) {
      ++inserted;
    } else {
      auto it = bob_key_to_index.find(entry.key);
      if (it == bob_key_to_index.end()) {
        return Status::Corruption("decoded unknown Bob-side key");
      }
      removed[it->second] = 1;
    }
  }
  const size_t kept =
      static_cast<size_t>(std::count(removed.begin(), removed.end(), 0));
  report.s_b_prime = PointStore(params.dim);
  report.s_b_prime.Reserve(kept + inserted);
  for (size_t i = 0; i < bob_sorted.size(); ++i) {
    if (!removed[i]) report.s_b_prime.Append(bob_sorted.row(i));
  }
  for (const IbltEntry& entry : decoded.entries) {
    if (entry.count > 0) {
      UnpackRowInto(entry.value, params.dim, report.s_b_prime.AppendRow());
    }
  }
  return report;
}

}  // namespace rsr
