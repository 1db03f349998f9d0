#include "core/multiparty.h"

#include <algorithm>
#include <string>

#include "hashing/hash64.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/parallel.h"
#include "util/random.h"

namespace rsr {

namespace {

/// One full broadcast round at `num_cells` cells per sketch: every party
/// builds its sketch over its (pre-deduped, pre-hashed) keys, the broadcasts
/// land on `transcript` in party order, then each party combines and decodes
/// sum_j T_j - s * T_i. ok[i] reports decode success; additions[i] holds the
/// decoded missing elements (one representative per distinct key), kept
/// separate from the base sets so a retry round can overwrite cleanly.
void RunBroadcastRound(const std::vector<PointStore>& deduped,
                       const std::vector<std::vector<uint64_t>>& party_keys,
                       const MultiPartyParams& params, size_t num_cells,
                       uint64_t decode_salt, Transcript* transcript,
                       std::vector<char>* ok, std::vector<Status>* hard_error,
                       std::vector<PointStore>* additions) {
  const size_t s = deduped.size();
  RibltParams sketch_params;
  sketch_params.num_cells = num_cells;
  sketch_params.num_hashes = params.num_hashes;
  sketch_params.dim = params.dim;
  sketch_params.delta = params.delta;
  sketch_params.seed = params.seed;

  // Parties are independent, so construction shards across threads; the
  // broadcasts are serialized afterwards in party order, keeping the
  // transcript identical to the sequential build.
  std::vector<Riblt> sketches;
  sketches.reserve(s);
  for (size_t i = 0; i < s; ++i) sketches.emplace_back(sketch_params);
  std::vector<std::vector<uint8_t>> wire(s);
  ParallelShards(s, params.num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      sketches[i].InsertMany(party_keys[i], deduped[i]);
      ByteWriter writer;
      sketches[i].WriteTo(&writer);
      wire[i] = writer.buffer();
    }
  });
  for (size_t i = 0; i < s; ++i) {
    transcript->SendBytes("party " + std::to_string(i) + " broadcast",
                          wire[i].size());
  }

  const size_t max_decode =
      params.max_decode > 0 ? params.max_decode : num_cells;
  ok->assign(s, 0);
  hard_error->assign(s, Status());
  additions->assign(s, PointStore(params.dim));
  // Each party's combine + decode is independent of every other party's, so
  // the loop shards across threads; per-party outcomes land in disjoint
  // slots (ok is a char array — vector<bool> is a bitfield and not safe for
  // concurrent writes) and hard errors are surfaced by the caller after the
  // join.
  ParallelShards(s, params.num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Party i parses every broadcast (including its own echo) from the
      // wire.
      Riblt combined(sketch_params);
      bool parse_ok = true;
      for (size_t j = 0; j < s; ++j) {
        ByteReader reader(wire[j].data(), wire[j].size());
        auto parsed = Riblt::ReadFrom(&reader, sketch_params);
        if (!parsed.ok()) {
          parse_ok = false;
          break;
        }
        Status added = combined.AddScaled(*parsed, 1);
        if (!added.ok()) {
          (*hard_error)[i] = added;
          parse_ok = false;
          break;
        }
      }
      if (!parse_ok) continue;
      Status scaled =
          combined.AddScaled(sketches[i], -static_cast<int64_t>(s));
      if (!scaled.ok()) {
        (*hard_error)[i] = scaled;
        continue;
      }

      Rng decode_rng(Mix64(params.seed) ^ (decode_salt + i));
      auto decoded = combined.Decode(max_decode, max_decode, &decode_rng);
      if (!decoded.ok()) continue;
      (*ok)[i] = 1;
      // Positive counts = elements party i is missing (multiplicity m > 0
      // among the other parties); each distinct key yields m identical
      // copies, add one. The extracted rows stay in the result's arena; a
      // key-sorted index picks one representative row per distinct key.
      const std::vector<uint64_t>& keys = decoded->inserted_keys;
      std::vector<size_t> order(keys.size());
      for (size_t p = 0; p < order.size(); ++p) order[p] = p;
      std::sort(order.begin(), order.end(),
                [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
      (*additions)[i].Reserve(order.size());
      uint64_t last_key = 0;
      bool have_last = false;
      for (size_t p : order) {
        if (have_last && keys[p] == last_key) continue;
        last_key = keys[p];
        have_last = true;
        (*additions)[i].Append(decoded->inserted[p]);
      }
    }
  });
}

/// The star-topology estimator round: parties 1..s-1 ship one strata
/// estimator each to the hub (party 0), which sums its estimated pairwise
/// differences and clamps the sketch size. Estimator failures (corrupt
/// wire, estimate error) fall back to the static cap, per the adaptive.h
/// convention that sizing never gates correctness.
size_t NegotiateMultiPartyCells(
    const std::vector<std::vector<uint64_t>>& party_keys,
    const MultiPartyParams& params, Transcript* transcript) {
  const size_t s = party_keys.size();
  const size_t cap = params.sketch_cells;
  const StrataParams est_params = MakeLevelStrataParams(params.seed, 0);
  std::vector<StrataEstimator> estimators;
  estimators.reserve(s);
  for (size_t i = 0; i < s; ++i) estimators.emplace_back(est_params);
  ParallelShards(s, params.num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      estimators[i].InsertMany(party_keys[i]);
    }
  });

  // The hub consumes each spoke's estimator off the wire (parse fidelity),
  // summing est(|S_0 Δ S_j|). EstimateDiff is reentrant (thread_local peel
  // scratch), but the loop stays sequential: it also parses the shared wire
  // stream in party order, and s is small.
  uint64_t total = 0;
  bool fallback = false;
  for (size_t j = 1; j < s; ++j) {
    ByteWriter writer;
    estimators[j].WriteTo(&writer);
    transcript->Send("party " + std::to_string(j) + " -> hub estimator",
                     writer);
    ByteReader reader(writer.buffer());
    auto parsed = StrataEstimator::ReadFrom(&reader, est_params);
    if (!parsed.ok() || !reader.FinishAndCheckConsumed().ok()) {
      fallback = true;
      break;
    }
    auto estimate = estimators[0].EstimateDiff(*parsed);
    if (!estimate.ok()) {
      fallback = true;
      break;
    }
    // Saturating sum: one UINT64_MAX extrapolation must not wrap back to a
    // tiny sketch.
    total = (*estimate > ~uint64_t{0} - total) ? ~uint64_t{0}
                                               : total + *estimate;
  }

  const double q = static_cast<double>(params.num_hashes);
  const size_t cells =
      fallback ? cap
               : AdaptiveCellCount(total,
                                   params.adaptive.cell_multiplier * q * q,
                                   params.adaptive.floor_cells, cap);

  // The hub tells every spoke the chosen size (one short broadcast); parse
  // it back off the wire like any negotiated prefix.
  ByteWriter size_msg;
  WriteNegotiatedCells({cells}, &size_msg);
  transcript->Send("hub size broadcast", size_msg);
  ByteReader size_reader(size_msg.buffer());
  auto parsed_cells = ReadNegotiatedCells(&size_reader, 1, cap);
  if (!parsed_cells.ok()) return cap;
  return (*parsed_cells)[0];
}

}  // namespace

Result<MultiPartyReport> RunMultiPartyUnion(
    const std::vector<PointStore>& parties, const MultiPartyParams& params) {
  const size_t s = parties.size();
  if (s < 2) return Status::InvalidArgument("need at least two parties");
  if (params.dim == 0 || params.delta < 1 || params.sketch_cells == 0) {
    return Status::InvalidArgument("dim, delta, sketch_cells required");
  }
  for (const PointStore& set : parties) {
    ValidatePointStore(set, params.dim, params.delta);
  }

  // Deduplicate within each party (set semantics) and hash once; both the
  // estimator round and every broadcast round reuse these keys.
  std::vector<PointStore> deduped(s);
  std::vector<std::vector<uint64_t>> party_keys(s);
  ParallelShards(s, params.num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      deduped[i] = parties[i];
      deduped[i].SortLexAndDedup();
      party_keys[i].resize(deduped[i].size());
      deduped[i].ContentHashMany(params.seed, party_keys[i].data());
    }
  });

  Transcript transcript;
  size_t cells = params.sketch_cells;
  if (params.adaptive.enabled) {
    cells = NegotiateMultiPartyCells(party_keys, params, &transcript);
  }

  std::vector<char> ok;
  std::vector<Status> hard_error;
  std::vector<PointStore> additions;
  RunBroadcastRound(deduped, party_keys, params, cells, 0xdeca, &transcript,
                    &ok, &hard_error, &additions);

  MultiPartyReport report;
  report.used_cells = cells;
  for (const Status& e : hard_error) RSR_RETURN_NOT_OK(e);
  const bool any_failed =
      std::find(ok.begin(), ok.end(), char{0}) != ok.end();
  if (params.adaptive.enabled && any_failed && cells < params.sketch_cells) {
    // The estimate undersized the sketches. One retry byte, then a full
    // re-broadcast at the static cap — identical sketches to static mode,
    // so adaptive succeeds whenever static would. The retry decodes under a
    // fresh rng salt (decoder-local coins, not public randomness).
    transcript.SendBytes("hub retry signal", 1);
    report.retried = true;
    report.used_cells = params.sketch_cells;
    RunBroadcastRound(deduped, party_keys, params, params.sketch_cells,
                      0x8e712, &transcript, &ok, &hard_error, &additions);
    for (const Status& e : hard_error) RSR_RETURN_NOT_OK(e);
  }

  report.comm = transcript.stats();
  report.final_sets.resize(s);
  report.party_ok.assign(s, false);
  report.all_ok = true;
  for (size_t i = 0; i < s; ++i) {
    report.party_ok[i] = ok[i] != 0;
    if (!ok[i]) report.all_ok = false;
    // A party that failed to decode has no additions: it keeps its input.
    PointStore& final_set = report.final_sets[i];
    final_set = PointStore(params.dim);
    final_set.Reserve(deduped[i].size() + additions[i].size());
    final_set.AppendStore(deduped[i]);
    final_set.AppendStore(additions[i]);
  }
  return report;
}

}  // namespace rsr
