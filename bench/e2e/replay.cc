#include "replay.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "emd/assignment.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "sketch/riblt.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/wire.h"

namespace rsr::e2e {
namespace {

/// Runs fn inside a span of `layer` and returns its result.
template <typename Fn>
auto Timed(Tracer& tracer, Layer layer, Fn&& fn) {
  ScopedSpan span(tracer, layer);
  return fn();
}

// Report point sets are built row by row, as the library builds them. The
// helpers also accept a PointStore-typed set, so the replay keeps compiling
// if the reports move off PointSet.
template <typename Set>
constexpr bool kIsStore = std::is_same_v<Set, PointStore>;

template <typename Set, typename Store>
void AppendRow(Set& set, const Store& store, size_t i) {
  if constexpr (kIsStore<Set>) {
    if (set.dim() == 0) set = PointStore(store.dim());
    set.Append(store[i]);
  } else {
    set.push_back(store.MakePoint(i));
  }
}

template <typename Set>
void AppendPoint(Set& set, const Point& point) {
  if constexpr (kIsStore<Set>) {
    if (set.dim() == 0) set = PointStore(point.dim());
    set.Append(point);
  } else {
    set.push_back(point);
  }
}

template <typename Set>
void ReserveRows(Set& set, size_t n) {
  if constexpr (kIsStore<Set>) {
    if (set.dim() != 0) set.Reserve(n);
  } else {
    set.reserve(n);
  }
}

template <typename Set>
void WriteRows(const Set& set, ByteWriter* w) {
  if constexpr (kIsStore<Set>) {
    set.WriteTo(w);
  } else {
    for (const auto& point : set) point.WriteTo(w);
  }
}

/// The estimator round of NegotiateLevelSketchCells[Prebuilt]: Bob's
/// estimators go on the wire, Alice parses them and sizes every level
/// against her own.
Result<std::vector<size_t>> NegotiateOverWire(
    const std::vector<StrataEstimator>& alice_estimators,
    const std::vector<StrataEstimator>& bob_estimators,
    const EmdProtocolParams& params, const EmdDerived& derived,
    Transcript* transcript) {
  const WireCodec codec = params.codec;
  ByteWriter estimator_msg;
  if (codec != WireCodec::kClassic) WriteWireHeader(codec, &estimator_msg);
  WriteEstimators(bob_estimators, &estimator_msg, codec);
  transcript->Send("B->A level strata", estimator_msg, codec);

  ByteReader reader(estimator_msg.buffer());
  if (codec != WireCodec::kClassic) {
    RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
  }
  RSR_ASSIGN_OR_RETURN(std::vector<StrataEstimator> received,
                       ReadEstimators(&reader, params.adaptive, params.seed,
                                      derived.levels, codec));
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  const double q = static_cast<double>(params.num_hashes);
  return NegotiateLevelCells(alice_estimators, received,
                             params.adaptive.cell_multiplier * q * q,
                             params.adaptive.floor_cells, derived.cells,
                             params.adaptive.rounding, params.num_hashes,
                             params.num_threads);
}

/// FinishEmdProtocol (core/emd_protocol.cc): encode, parse, subtract, peel,
/// match, assemble.
Result<EmdProtocolReport> FinishEmd(const std::vector<Riblt>& tables,
                                    const std::vector<size_t>& level_cells,
                                    const std::vector<size_t>& prefix_lens,
                                    const PointStore& bob,
                                    const std::vector<uint64_t>& bob_keys,
                                    const EmdProtocolParams& params,
                                    Transcript* transcript,
                                    EmdProtocolReport report,
                                    ByteWriter* message, Tracer& tracer) {
  const EmdDerived& derived = report.derived;
  const size_t n = bob.size();
  const WireCodec codec = params.codec;
  const bool adaptive = params.adaptive.enabled;
  report.level_cells = level_cells;
  report.levels.resize(derived.levels);
  for (size_t level = 1; level <= derived.levels; ++level) {
    report.levels[level - 1].prefix_len = prefix_lens[level - 1];
  }

  {
    ScopedSpan span(tracer, Layer::kRibltEncode);
    message->Clear();
    if (codec != WireCodec::kClassic && !adaptive) {
      WriteWireHeader(codec, message);
    }
    if (adaptive) WriteNegotiatedCells(level_cells, message);
    for (const Riblt& table : tables) table.WriteTo(message, codec);
    transcript->Send("A->B level RIBLTs", *message, codec);
  }

  std::vector<Riblt> received;
  {
    ScopedSpan span(tracer, Layer::kRibltParse);
    ByteReader reader(message->buffer());
    if (codec != WireCodec::kClassic && !adaptive) {
      RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
    }
    std::vector<size_t> parsed_cells(derived.levels, derived.cells);
    if (adaptive) {
      RSR_ASSIGN_OR_RETURN(
          parsed_cells,
          ReadNegotiatedCells(&reader, derived.levels, derived.cells));
    }
    received.reserve(derived.levels);
    for (size_t level = 1; level <= derived.levels; ++level) {
      RSR_ASSIGN_OR_RETURN(
          Riblt table,
          Riblt::ReadFrom(&reader,
                          EmdLevelRibltParams(params, parsed_cells[level - 1],
                                              level),
                          codec));
      received.push_back(std::move(table));
    }
    RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  }

  {
    ScopedSpan span(tracer, Layer::kRibltSubtract);
    ParallelShards(derived.levels, params.num_threads,
                   [&](size_t begin, size_t end) {
                     for (size_t l = begin; l < end; ++l) {
                       received[l].DeleteMany(
                           std::span<const uint64_t>(bob_keys.data() + l * n,
                                                     n),
                           bob);
                     }
                   });
  }

  Rng bob_coins(Mix64(params.seed) ^ 0xb0b);
  const size_t max_pairs = 4 * params.k;
  const size_t max_per_side = 2 * params.k;
  size_t decoded_level = 0;
  RibltDecodeResult best;
  RibltDecodeResult decoded;
  {
    ScopedSpan span(tracer, Layer::kRibltPeel);
    for (size_t level = derived.levels; level >= 1; --level) {
      Status decode_status = received[level - 1].DecodeInto(
          max_pairs, max_per_side, &bob_coins, &decoded);
      EmdLevelOutcome& outcome = report.levels[level - 1];
      if (decode_status.ok()) {
        outcome.decoded = true;
        outcome.pairs_alice = decoded.inserted.size();
        outcome.pairs_bob = decoded.deleted.size();
        if (decoded_level == 0) {
          decoded_level = level;
          best = std::move(decoded);
        }
      }
      if (level == 1) break;
    }
  }

  report.comm = transcript->stats();
  if (decoded_level == 0) {
    report.failure = true;
    return report;
  }
  report.decoded_level = decoded_level;
  report.x_a = std::move(best.inserted);
  report.x_b = std::move(best.deleted);

  std::vector<char> removed(n, 0);
  const PointStore* x_a = &report.x_a;
  PointStore trimmed;
  {
    ScopedSpan span(tracer, Layer::kEmdMatch);
    const PointStore& x_b = report.x_b;
    if (report.x_a.size() > x_b.size()) {
      trimmed = report.x_a;
      trimmed.SortLex();
      report.trimmed_from_x_a = trimmed.size() - x_b.size();
      trimmed.Truncate(x_b.size());
      x_a = &trimmed;
    }
    if (!x_b.empty()) {
      const CostMatrix cost = DistanceMatrix(x_b, bob, Metric(params.metric));
      const AssignmentResult assignment = MinCostAssignment(cost);
      auto col = [&](size_t r) {
        return static_cast<size_t>(assignment.row_to_col[r]);
      };
      if (x_a->size() < x_b.size()) {
        std::vector<size_t> order(x_b.size());
        for (size_t r = 0; r < x_b.size(); ++r) order[r] = r;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return cost[a][col(a)] < cost[b][col(b)];
        });
        report.kept_in_y_b = x_b.size() - x_a->size();
        for (size_t r = 0; r < x_a->size(); ++r) removed[col(order[r])] = 1;
      } else {
        for (size_t r = 0; r < x_b.size(); ++r) removed[col(r)] = 1;
      }
    }
  }

  {
    ScopedSpan span(tracer, Layer::kGeometryAssemble);
    ReserveRows(report.s_b_prime, n);
    for (size_t i = 0; i < n; ++i) {
      if (!removed[i]) AppendRow(report.s_b_prime, bob, i);
    }
    for (size_t i = 0; i < x_a->size(); ++i) {
      AppendRow(report.s_b_prime, *x_a, i);
    }
  }
  return report;
}

std::string SameMessages(const CommStats& a, const CommStats& b) {
  if (a.messages.size() != b.messages.size()) return "message count";
  for (size_t i = 0; i < a.messages.size(); ++i) {
    const MessageRecord& x = a.messages[i];
    const MessageRecord& y = b.messages[i];
    if (x.label != y.label || x.bytes != y.bytes || x.codec != y.codec) {
      return "message " + std::to_string(i) + " (" + x.label + ")";
    }
  }
  return "";
}

}  // namespace

Result<EmdProtocolReport> ReplayEmdProtocol(const PointStore& alice,
                                            const PointStore& bob,
                                            const EmdProtocolParams& params,
                                            Tracer& tracer) {
  if (params.sketch_shards > 1) {
    return Status::Unimplemented("replay covers sketch_shards <= 1 only");
  }
  const size_t n = alice.size();
  EmdProtocolReport report;
  RSR_ASSIGN_OR_RETURN(
      report.derived,
      Timed(tracer, Layer::kEmdHashes, [&]() -> Result<EmdDerived> {
        if (alice.size() != bob.size() || alice.empty()) {
          return Status::InvalidArgument(
              "|S_A| must equal |S_B| and be positive");
        }
        ValidatePointStore(alice, params.dim, params.delta);
        ValidatePointStore(bob, params.dim, params.delta);
        return DeriveEmdParameters(params, n);
      }));
  const EmdDerived& derived = report.derived;
  const EmdHashes hashes = Timed(tracer, Layer::kEmdHashes,
                                 [&] { return MakeEmdHashes(params, derived); });
  const std::vector<size_t> prefix_lens = EmdPrefixLens(derived);

  // Both evaluation matrices live to the end of the exchange, as in the
  // library: their lifetimes shape the allocator's behaviour, and with it
  // the timing of everything allocated after them.
  auto level_keys = [&](const PointStore& points, EvalMatrix* evals) {
    Timed(tracer, Layer::kLshEval, [&] {
      EvaluateAllInto(points, hashes.draws, params.num_threads, evals);
    });
    return Timed(tracer, Layer::kEmdKeys, [&] {
      return ComputeEmdLevelKeys(*evals, hashes.level_key_hash, prefix_lens,
                                 params.num_threads);
    });
  };
  EvalMatrix alice_evals;
  const std::vector<uint64_t> alice_keys = level_keys(alice, &alice_evals);
  EvalMatrix bob_evals;
  const std::vector<uint64_t> bob_keys = level_keys(bob, &bob_evals);

  Transcript transcript;
  std::vector<size_t> level_cells(derived.levels, derived.cells);
  if (params.adaptive.enabled) {
    auto estimators = [&](const std::vector<uint64_t>& keys) {
      return Timed(tracer, Layer::kAdaptiveEstimators, [&] {
        return BuildLevelEstimators(keys, derived.levels, n, params.adaptive,
                                    params.seed, params.num_threads);
      });
    };
    const std::vector<StrataEstimator> alice_estimators =
        estimators(alice_keys);
    const std::vector<StrataEstimator> bob_estimators = estimators(bob_keys);
    RSR_ASSIGN_OR_RETURN(
        level_cells, Timed(tracer, Layer::kAdaptiveNegotiate, [&] {
          return NegotiateOverWire(alice_estimators, bob_estimators, params,
                                   derived, &transcript);
        }));
  }

  const std::vector<Riblt> tables = Timed(tracer, Layer::kRibltBuild, [&] {
    std::vector<Riblt> built;
    built.reserve(derived.levels);
    for (size_t level = 1; level <= derived.levels; ++level) {
      built.emplace_back(
          EmdLevelRibltParams(params, level_cells[level - 1], level));
    }
    ParallelShards(derived.levels, params.num_threads,
                   [&](size_t begin, size_t end) {
                     for (size_t l = begin; l < end; ++l) {
                       built[l].InsertMany(
                           std::span<const uint64_t>(
                               alice_keys.data() + l * n, n),
                           alice);
                     }
                   });
    return built;
  });

  ByteWriter message;
  return FinishEmd(tables, level_cells, prefix_lens, bob, bob_keys, params,
                   &transcript, std::move(report), &message, tracer);
}

Result<EmdProtocolReport> ReplayEmdPrebuilt(const EmdSketchSet& alice,
                                            const PointStore& bob,
                                            const EmdProtocolParams& params,
                                            Tracer& tracer) {
  if (!params.adaptive.enabled ||
      params.adaptive.rounding != CellRounding::kDivisorLadder) {
    return Status::Unimplemented(
        "replay covers adaptive divisor-ladder serving only");
  }
  const size_t n = bob.size();
  EmdProtocolReport report;
  RSR_ASSIGN_OR_RETURN(
      report.derived,
      Timed(tracer, Layer::kEmdHashes, [&]() -> Result<EmdDerived> {
        if (bob.size() != alice.n || bob.empty()) {
          return Status::InvalidArgument(
              "|S_B| must equal the sketch set's n");
        }
        ValidatePointStore(bob, params.dim, params.delta);
        RSR_ASSIGN_OR_RETURN(EmdDerived derived,
                             DeriveEmdParameters(params, n));
        if (derived.levels != alice.derived.levels ||
            derived.cells != alice.derived.cells ||
            derived.s != alice.derived.s ||
            alice.tables.size() != derived.levels ||
            alice.estimators.size() != derived.levels) {
          return Status::InvalidArgument(
              "sketch set was built under different parameters");
        }
        return derived;
      }));
  const EmdDerived& derived = report.derived;
  const EmdHashes hashes = Timed(tracer, Layer::kEmdHashes,
                                 [&] { return MakeEmdHashes(params, derived); });
  EvalMatrix bob_evals;
  Timed(tracer, Layer::kLshEval, [&] {
    EvaluateAllInto(bob, hashes.draws, params.num_threads, &bob_evals);
  });
  const std::vector<uint64_t> bob_keys = Timed(tracer, Layer::kEmdKeys, [&] {
    return ComputeEmdLevelKeys(bob_evals, hashes.level_key_hash,
                               alice.prefix_lens, params.num_threads);
  });

  Transcript transcript;
  const std::vector<StrataEstimator> bob_estimators =
      Timed(tracer, Layer::kAdaptiveEstimators, [&] {
        return BuildLevelEstimators(bob_keys, derived.levels, n,
                                    params.adaptive, params.seed,
                                    params.num_threads);
      });
  RSR_ASSIGN_OR_RETURN(
      std::vector<size_t> level_cells,
      Timed(tracer, Layer::kAdaptiveNegotiate, [&] {
        return NegotiateOverWire(alice.estimators, bob_estimators, params,
                                 derived, &transcript);
      }));
  // A fresh scratch per exchange, as a fresh SyncSession has.
  EmdServeScratch scratch;
  RSR_RETURN_NOT_OK(Timed(tracer, Layer::kRibltFold, [&] {
    return FoldEmdSketches(alice, level_cells, params, &scratch);
  }));
  return FinishEmd(scratch.folded, level_cells, alice.prefix_lens, bob,
                   bob_keys, params, &transcript, std::move(report),
                   &scratch.message, tracer);
}

Result<GapProtocolReport> ReplayGapProtocol(const PointStore& alice,
                                            const PointStore& bob,
                                            const GapProtocolParams& params,
                                            Tracer& tracer) {
  GapProtocolReport report;
  GapDerived& derived = report.derived;
  SetsReconcilerParams reconciler = params.reconciler;
  std::vector<std::unique_ptr<LshFunction>> functions;
  std::vector<PairwiseVectorHash> batch_hashes;
  {
    // RunGapProtocol's derivation, then RunGapPipeline's batch-hash draws.
    ScopedSpan span(tracer, Layer::kGapHashes);
    if (alice.empty() && bob.empty()) {
      return Status::InvalidArgument("both point sets empty");
    }
    if (params.dim == 0) {
      return Status::InvalidArgument("dim must be positive");
    }
    ValidatePointStore(alice, params.dim, params.delta);
    ValidatePointStore(bob, params.dim, params.delta);
    const size_t n = std::max(alice.size(), bob.size());
    RSR_ASSIGN_OR_RETURN(
        GapLshConfig lsh,
        MakeGapLsh(params.metric, params.dim, params.r1, params.r2));
    derived.p1 = lsh.lsh.p1;
    derived.p2 = lsh.lsh.p2;
    derived.rho = lsh.lsh.rho();
    derived.m = static_cast<size_t>(
        std::max(1.0, std::ceil(std::log(2.0) / std::log(1.0 / derived.p2))));
    derived.q1 = std::pow(derived.p1, static_cast<double>(derived.m));
    derived.q2 = std::pow(derived.p2, static_cast<double>(derived.m));
    if (derived.q1 <= derived.q2) {
      return Status::InvalidArgument("no usable gap: p1^m <= p2^m");
    }
    derived.h = static_cast<size_t>(
        std::ceil(params.h_multiplier *
                  std::log2(static_cast<double>(std::max<size_t>(n, 4)))));
    if (derived.h < 2) derived.h = 2;
    derived.tau =
        static_cast<double>(derived.h) * (derived.q1 + derived.q2) / 2.0;

    const double entry_diff_rate = 1.0 - derived.q1;
    const double h = static_cast<double>(derived.h);
    const double k = static_cast<double>(params.k);
    const double n_d = static_cast<double>(n);
    const double expected_diff_sets =
        2.0 * (k + n_d * std::min(1.0, h * entry_diff_rate));
    const double expected_diff_elems = 2.0 * h * (k + n_d * entry_diff_rate);
    if (reconciler.sig_cells == 0) {
      reconciler.sig_cells =
          std::max<size_t>(64, static_cast<size_t>(2.5 * expected_diff_sets));
    }
    if (reconciler.elem_cells == 0) {
      reconciler.elem_cells = std::max<size_t>(
          128, static_cast<size_t>(2.5 * expected_diff_elems));
    }
    if (reconciler.seed == 0) {
      reconciler.seed = HashCombine(params.seed, 0x5e75ULL);
    }
    Rng shared(params.seed);
    functions = DrawMany(*lsh.family, derived.h * derived.m, &shared);
    RSR_CHECK(derived.h >= 1 && derived.h < kMaxSlots);
    Rng batch_rng(Mix64(params.seed) ^ 0x6a9);
    batch_hashes.reserve(derived.h);
    for (size_t j = 0; j < derived.h; ++j) {
      batch_hashes.push_back(PairwiseVectorHash::Draw(&batch_rng));
    }
  }

  const size_t h = derived.h;
  const size_t m = derived.m;
  auto build_keys = [&](const PointStore& points) {
    EvalMatrix evals;
    Timed(tracer, Layer::kLshEval, [&] {
      EvaluateAllInto(points, functions, params.num_threads, &evals);
    });
    ScopedSpan span(tracer, Layer::kGapKeys);
    std::vector<SlottedSet> keys(points.size());
    for (auto& key : keys) key.resize(h);
    const size_t cols = h * m;
    for (const auto& hash : batch_hashes) hash.Reserve(m);
    ParallelShards(points.size(), params.num_threads,
                   [&](size_t begin, size_t end) {
                     std::vector<uint64_t> slot_keys(end - begin);
                     for (size_t j = 0; j < h; ++j) {
                       batch_hashes[j].EvalBatch(
                           evals.data() + begin * cols + j * m, end - begin,
                           cols, m, slot_keys.data());
                       for (size_t i = begin; i < end; ++i) {
                         keys[i][j] =
                             static_cast<uint32_t>(slot_keys[i - begin]);
                       }
                     }
                   });
    return keys;
  };
  const std::vector<SlottedSet> alice_keys = build_keys(alice);
  const std::vector<SlottedSet> bob_keys = build_keys(bob);

  RSR_ASSIGN_OR_RETURN(report.reconciliation,
                       Timed(tracer, Layer::kSetsetsReconcile, [&] {
                         return ReconcileSetsOfSets(alice_keys, bob_keys,
                                                    reconciler);
                       }));
  report.comm.Append(report.reconciliation.comm);

  ByteWriter message;
  {
    ScopedSpan span(tracer, Layer::kGapFar);
    const std::vector<SlottedSet>& bob_recovered =
        report.reconciliation.bob_sets;
    std::unordered_map<uint64_t, std::vector<size_t>> entry_index;
    for (size_t b = 0; b < bob_recovered.size(); ++b) {
      for (size_t slot = 0; slot < h; ++slot) {
        const uint64_t entry =
            (static_cast<uint64_t>(slot) << 32) | bob_recovered[b][slot];
        entry_index[entry].push_back(b);
      }
    }
    std::map<SlottedSet, std::vector<size_t>> alice_by_key;
    for (size_t i = 0; i < alice.size(); ++i) {
      alice_by_key[alice_keys[i]].push_back(i);
    }
    std::vector<size_t> match_count(bob_recovered.size(), 0);
    std::vector<size_t> touched;
    for (const auto& [key, owners] : alice_by_key) {
      touched.clear();
      size_t best = 0;
      for (size_t slot = 0; slot < h; ++slot) {
        const uint64_t entry = (static_cast<uint64_t>(slot) << 32) | key[slot];
        auto it = entry_index.find(entry);
        if (it == entry_index.end()) continue;
        for (size_t b : it->second) {
          if (match_count[b] == 0) touched.push_back(b);
          ++match_count[b];
          best = std::max(best, match_count[b]);
        }
      }
      for (size_t b : touched) match_count[b] = 0;
      if (static_cast<double>(best) < derived.tau) {
        ++report.far_keys;
        for (size_t i : owners) AppendRow(report.transmitted, alice, i);
      }
    }
    message.PutVarint64(report.transmitted.size());
    WriteRows(report.transmitted, &message);
    Transcript transcript;
    transcript.Send("A->B far elements", message);
    report.comm.Append(transcript.stats());
  }

  {
    ScopedSpan span(tracer, Layer::kGeometryAssemble);
    ByteReader reader(message.buffer());
    const uint64_t count = reader.GetVarint64();
    if (reader.failed() || count > alice.size()) {
      return Status::Corruption("far-element count out of range");
    }
    ReserveRows(report.s_b_prime, bob.size() + count);
    for (size_t i = 0; i < bob.size(); ++i) {
      AppendRow(report.s_b_prime, bob, i);
    }
    for (uint64_t i = 0; i < count; ++i) {
      AppendPoint(report.s_b_prime, Point::ReadFrom(&reader));
    }
    RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  }
  return report;
}

std::string SameExchange(const EmdProtocolReport& shipped,
                         const EmdProtocolReport& replayed, size_t dim) {
  if (shipped.failure != replayed.failure) return "failure flag";
  if (shipped.decoded_level != replayed.decoded_level) return "decoded_level";
  if (shipped.level_cells != replayed.level_cells) return "level_cells";
  if (shipped.levels.size() != replayed.levels.size()) return "level count";
  for (size_t l = 0; l < shipped.levels.size(); ++l) {
    const EmdLevelOutcome& a = shipped.levels[l];
    const EmdLevelOutcome& b = replayed.levels[l];
    if (a.prefix_len != b.prefix_len || a.decoded != b.decoded ||
        a.pairs_alice != b.pairs_alice || a.pairs_bob != b.pairs_bob) {
      return "level " + std::to_string(l + 1) + " outcome";
    }
  }
  if (shipped.x_a != replayed.x_a || shipped.x_b != replayed.x_b) {
    return "decoded pairs";
  }
  if (shipped.trimmed_from_x_a != replayed.trimmed_from_x_a ||
      shipped.kept_in_y_b != replayed.kept_in_y_b) {
    return "size repair counters";
  }
  const std::string messages = SameMessages(shipped.comm, replayed.comm);
  if (!messages.empty()) return messages;
  if (shipped.s_b_prime.size() != replayed.s_b_prime.size() ||
      SortedRows(shipped.s_b_prime, dim) !=
          SortedRows(replayed.s_b_prime, dim)) {
    return "S'_B";
  }
  return "";
}

std::string SameExchange(const GapProtocolReport& shipped,
                         const GapProtocolReport& replayed, size_t dim) {
  if (shipped.far_keys != replayed.far_keys) return "far_keys";
  if (shipped.derived.h != replayed.derived.h ||
      shipped.derived.m != replayed.derived.m ||
      shipped.derived.tau != replayed.derived.tau) {
    return "derived parameters";
  }
  const SetsReconcilerReport& a = shipped.reconciliation;
  const SetsReconcilerReport& b = replayed.reconciliation;
  if (a.diff_sets_bob != b.diff_sets_bob ||
      a.diff_sets_alice != b.diff_sets_alice ||
      a.diff_elements != b.diff_elements ||
      a.sig_attempts != b.sig_attempts || a.elem_attempts != b.elem_attempts ||
      a.fallback_sets != b.fallback_sets ||
      a.full_transfer != b.full_transfer || a.bob_sets != b.bob_sets) {
    return "reconciliation report";
  }
  const std::string messages = SameMessages(shipped.comm, replayed.comm);
  if (!messages.empty()) return messages;
  if (shipped.transmitted.size() != replayed.transmitted.size() ||
      shipped.s_b_prime.size() != replayed.s_b_prime.size()) {
    return "point set sizes";
  }
  if (SortedRows(shipped.transmitted, dim) !=
          SortedRows(replayed.transmitted, dim) ||
      SortedRows(shipped.s_b_prime, dim) !=
          SortedRows(replayed.s_b_prime, dim)) {
    return "transmitted or S'_B";
  }
  return "";
}

}  // namespace rsr::e2e
