#include "core/gap_protocol.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "util/parallel.h"

namespace rsr {

namespace internal {

namespace {

/// Hash of the sub-key key[lo, hi). Equal sub-keys hash equal; unequal ones
/// may collide, which costs DetectFarKeys a verification, never a result.
uint64_t SubKeyHash(const SlottedSet& key, size_t lo, size_t hi) {
  uint64_t acc = 0x9a7f5b10c4e3d2a1ULL;
  for (size_t slot = lo; slot < hi; ++slot) acc = HashCombine(acc, key[slot]);
  return acc;
}

/// True iff `a` and `b` agree in at least `need` of their h slots; stops as
/// soon as the answer is known.
bool MatchesAtLeast(const SlottedSet& a, const SlottedSet& b, size_t need) {
  const size_t h = a.size();
  const size_t max_misses = h - need;
  size_t matches = 0;
  size_t misses = 0;
  for (size_t slot = 0; slot < h; ++slot) {
    if (a[slot] == b[slot]) {
      if (++matches == need) return true;
    } else if (++misses > max_misses) {
      return false;
    }
  }
  return false;
}

}  // namespace

FarDetection DetectFarKeys(const std::vector<SlottedSet>& alice_keys,
                           const std::vector<SlottedSet>& bob_keys,
                           double tau) {
  FarDetection result;
  // need = ceil(tau) <= 0: every best count reaches tau, nothing is far.
  if (alice_keys.empty() || !(tau > 0)) return result;
  const size_t h = alice_keys[0].size();
  for (const SlottedSet& key : alice_keys) RSR_CHECK_EQ(key.size(), h);
  for (const SlottedSet& key : bob_keys) RSR_CHECK_EQ(key.size(), h);

  // Distinct keys in ascending order, rows ascending within a key: a stable
  // sort of row indices. Far runs are compacted to the front of `rows`
  // in place, which then becomes far_rows.
  std::vector<size_t> rows(alice_keys.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    return alice_keys[a] < alice_keys[b];
  });
  auto for_each_key = [&](auto&& is_far) {
    size_t kept = 0;
    size_t key_id = 0;
    for (size_t begin = 0; begin < rows.size(); ++key_id) {
      const SlottedSet& key = alice_keys[rows[begin]];
      size_t end = begin + 1;
      while (end < rows.size() && alice_keys[rows[end]] == key) ++end;
      if (is_far(key, key_id)) {
        ++result.far_keys;
        for (size_t i = begin; i < end; ++i) rows[kept++] = rows[i];
      }
      begin = end;
    }
    rows.resize(kept);
  };

  if (bob_keys.empty() || std::ceil(tau) > static_cast<double>(h)) {
    // Best counts are at most h (0 with no Bob keys), all below tau.
    for_each_key([](const SlottedSet&, size_t) { return true; });
    result.far_rows = std::move(rows);
    return result;
  }
  const size_t need = static_cast<size_t>(std::ceil(tau));  // in [1, h]
  const size_t groups = h - need + 1;
  const size_t n_bob = bob_keys.size();
  auto group_begin = [&](size_t g) { return g * h / groups; };

  // Per group, Bob's (sub-key hash, key index) pairs sorted by hash, in one
  // flat array: group g occupies [g * n_bob, (g + 1) * n_bob).
  struct Entry {
    uint64_t sub_key;
    size_t bob;
  };
  std::vector<Entry> index(groups * n_bob);
  for (size_t g = 0; g < groups; ++g) {
    Entry* slice = index.data() + g * n_bob;
    for (size_t b = 0; b < n_bob; ++b) {
      slice[b] = {SubKeyHash(bob_keys[b], group_begin(g), group_begin(g + 1)),
                  b};
    }
    std::sort(slice, slice + n_bob, [](const Entry& x, const Entry& y) {
      return x.sub_key < y.sub_key;
    });
  }

  // stamp[b] == key_id + 1: Bob key b was already verified for this key.
  std::vector<size_t> stamp(n_bob, 0);
  for_each_key([&](const SlottedSet& key, size_t key_id) {
    for (size_t g = 0; g < groups; ++g) {
      const uint64_t sub_key =
          SubKeyHash(key, group_begin(g), group_begin(g + 1));
      const Entry* slice_begin = index.data() + g * n_bob;
      const Entry* slice_end = slice_begin + n_bob;
      const Entry* it = std::lower_bound(
          slice_begin, slice_end, sub_key,
          [](const Entry& e, uint64_t v) { return e.sub_key < v; });
      for (; it != slice_end && it->sub_key == sub_key; ++it) {
        if (stamp[it->bob] == key_id + 1) continue;
        stamp[it->bob] = key_id + 1;
        if (MatchesAtLeast(key, bob_keys[it->bob], need)) return false;
      }
    }
    return true;
  });
  result.far_rows = std::move(rows);
  return result;
}

Result<GapPipelineResult> RunGapPipeline(
    const PointStore& alice, const PointStore& bob,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const GapPipelineConfig& config) {
  RSR_CHECK_EQ(functions.size(), config.h * config.m);
  RSR_CHECK(config.h >= 1 && config.h < kMaxSlots);

  // Batch hashes: one pairwise-independent vector hash per key entry.
  Rng shared(Mix64(config.seed) ^ 0x6a9);
  std::vector<PairwiseVectorHash> batch_hashes;
  batch_hashes.reserve(config.h);
  for (size_t j = 0; j < config.h; ++j) {
    batch_hashes.push_back(PairwiseVectorHash::Draw(&shared));
  }

  // Batch pipeline: one row-major n x (h*m) evaluation matrix (one virtual
  // call per LSH function per shard), then per slot j a batched vector hash
  // over the m-wide row segment at column j*m. Bit-identical to the
  // historical per-point loop  keys[i][j] = H_j(Eval_{jm}(p_i)..Eval_{jm+m-1}).
  auto build_keys = [&](const PointStore& points) {
    const size_t n_points = points.size();
    std::vector<SlottedSet> keys(n_points);
    for (auto& key : keys) key.resize(config.h);
    EvalMatrix evals;
    EvaluateAllInto(points, functions, config.num_threads, &evals);
    const size_t cols = config.h * config.m;
    for (const auto& h : batch_hashes) h.Reserve(config.m);  // thread safety
    ParallelShards(n_points, config.num_threads,
                   [&](size_t begin, size_t end) {
                     std::vector<uint64_t> slot_keys(end - begin);
                     for (size_t j = 0; j < config.h; ++j) {
                       batch_hashes[j].EvalBatch(
                           evals.data() + begin * cols + j * config.m,
                           end - begin, cols, config.m, slot_keys.data());
                       // Theta(log n)-bit entries: truncate the 61-bit hash
                       // to 32 bits.
                       for (size_t i = begin; i < end; ++i) {
                         keys[i][j] =
                             static_cast<uint32_t>(slot_keys[i - begin]);
                       }
                     }
                   });
    return keys;
  };

  std::vector<SlottedSet> alice_keys = build_keys(alice);
  std::vector<SlottedSet> bob_keys = build_keys(bob);

  // ---- Rounds 1-3: Alice recovers the multiset of Bob's keys. ----
  GapPipelineResult result;
  RSR_ASSIGN_OR_RETURN(
      result.reconciliation,
      ReconcileSetsOfSets(alice_keys, bob_keys, config.reconciler));
  result.comm.Append(result.reconciliation.comm);
  const std::vector<SlottedSet>& bob_recovered = result.reconciliation.bob_sets;

  // ---- Far detection: an Alice key is far when no recovered Bob key
  // matches it in ceil(tau) or more slots (DetectFarKeys: exact pigeonhole
  // candidates, each verified by a full slot compare). ----
  const FarDetection far = DetectFarKeys(alice_keys, bob_recovered, config.tau);
  result.far_keys = far.far_keys;

  // Either side may be empty (and then possibly dimensionless); the other
  // one carries the protocol's dimension.
  const size_t dim = alice.empty() ? bob.dim() : alice.dim();
  result.transmitted = PointStore(dim);
  result.transmitted.Reserve(far.far_rows.size());
  for (size_t i : far.far_rows) result.transmitted.Append(alice.row(i));

  // ---- Round 4: Alice transmits T_A. ----
  ByteWriter message;
  message.PutVarint64(result.transmitted.size());
  result.transmitted.WriteTo(&message);
  Transcript transcript;
  transcript.Send("A->B far elements", message);
  result.comm.Append(transcript.stats());

  // Bob: S'_B = S_B ∪ T_A (parsed from the wire). The output is reserved
  // from the parsed rows, never from the raw wire count.
  ByteReader reader(message.buffer());
  const uint64_t count = reader.GetVarint64();
  const PointStore t_a =
      PointStore::ReadFrom(&reader, dim, static_cast<size_t>(count));
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  result.s_b_prime = PointStore(dim);
  result.s_b_prime.Reserve(bob.size() + t_a.size());
  result.s_b_prime.AppendStore(bob);
  result.s_b_prime.AppendStore(t_a);
  return result;
}

}  // namespace internal

Result<GapProtocolReport> RunGapProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const GapProtocolParams& params) {
  if (alice.empty() && bob.empty()) {
    return Status::InvalidArgument("both point sets empty");
  }
  if (params.dim == 0) return Status::InvalidArgument("dim must be positive");
  ValidatePointStore(alice, params.dim, params.delta);
  ValidatePointStore(bob, params.dim, params.delta);

  const size_t n = std::max(alice.size(), bob.size());

  GapProtocolReport report;
  RSR_ASSIGN_OR_RETURN(GapLshConfig lsh,
                       MakeGapLsh(params.metric, params.dim, params.r1,
                                  params.r2));
  GapDerived& derived = report.derived;
  derived.p1 = lsh.lsh.p1;
  derived.p2 = lsh.lsh.p2;
  derived.rho = lsh.lsh.rho();

  // m = log_{p2}(1/2) so that each entry matches a far pair w.p. <= 1/2.
  derived.m = static_cast<size_t>(
      std::max(1.0, std::ceil(std::log(2.0) / std::log(1.0 / derived.p2))));
  derived.q1 = std::pow(derived.p1, static_cast<double>(derived.m));
  derived.q2 = std::pow(derived.p2, static_cast<double>(derived.m));
  if (derived.q1 <= derived.q2) {
    return Status::InvalidArgument("no usable gap: p1^m <= p2^m");
  }
  derived.h = static_cast<size_t>(std::ceil(
      params.h_multiplier * std::log2(static_cast<double>(std::max<size_t>(n, 4)))));
  if (derived.h < 2) derived.h = 2;
  // Paper threshold h(1/2 + eps/6) specializes q2 = 1/2; with q2 < 1/2 the
  // Chernoff midpoint of the two expectations is the natural generalization.
  derived.tau = static_cast<double>(derived.h) * (derived.q1 + derived.q2) / 2.0;

  // Auto-size the reconciler sketches from the expected differences.
  internal::GapPipelineConfig config;
  config.h = derived.h;
  config.m = derived.m;
  config.tau = derived.tau;
  config.reconciler = params.reconciler;
  config.num_threads = params.num_threads;
  config.seed = params.seed;
  double expect_entry_diff_rate = 1.0 - derived.q1;  // per close-pair entry
  double expected_diff_sets =
      2.0 * (static_cast<double>(params.k) +
             static_cast<double>(n) *
                 std::min(1.0, static_cast<double>(derived.h) *
                                   expect_entry_diff_rate));
  double expected_diff_elems =
      2.0 * static_cast<double>(derived.h) *
      (static_cast<double>(params.k) +
       static_cast<double>(n) * expect_entry_diff_rate);
  if (config.reconciler.sig_cells == 0) {
    config.reconciler.sig_cells =
        std::max<size_t>(64, static_cast<size_t>(2.5 * expected_diff_sets));
  }
  if (config.reconciler.elem_cells == 0) {
    config.reconciler.elem_cells =
        std::max<size_t>(128, static_cast<size_t>(2.5 * expected_diff_elems));
  }
  if (config.reconciler.seed == 0) {
    config.reconciler.seed = HashCombine(params.seed, 0x5e75ULL);
  }

  // Public coins: draw the h*m LSH functions from the shared seed.
  Rng shared(params.seed);
  std::vector<std::unique_ptr<LshFunction>> functions =
      DrawMany(*lsh.family, derived.h * derived.m, &shared);

  RSR_ASSIGN_OR_RETURN(
      internal::GapPipelineResult pipeline,
      internal::RunGapPipeline(alice, bob, functions, config));
  report.s_b_prime = std::move(pipeline.s_b_prime);
  report.transmitted = std::move(pipeline.transmitted);
  report.far_keys = pipeline.far_keys;
  report.reconciliation = std::move(pipeline.reconciliation);
  report.comm = std::move(pipeline.comm);
  return report;
}

}  // namespace rsr
