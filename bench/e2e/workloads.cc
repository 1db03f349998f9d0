#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>

#include "core/emd_protocol.h"
#include "core/gap_protocol.h"
#include "core/sync_dataset.h"
#include "core/sync_server.h"
#include "hashing/hash64.h"
#include "lsh/batch_kernels.h"
#include "replay.h"
#include "trace.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// One-shot workloads cycle through this many pre-generated input pairs.
constexpr size_t kRing = 8;
/// Set-up is repeated (MoreSetups) and its median reported.
constexpr size_t kSetupReps = 5;
constexpr size_t kMaxSetupReps = 50;
constexpr double kSetupSeconds = 1.0;
/// p95 is reported only with at least ten samples beyond it.
constexpr size_t kMinOps = 200;
constexpr size_t kMinTracedOps = 20;
constexpr size_t kMinSmokeOps = 3;
/// Windows stretch to reach kMinOps, but never past this (runs must end
/// well within three minutes).
constexpr double kHardCapSeconds = 150;
constexpr size_t kTraceCapacity = size_t{1} << 16;  // spans per thread

// serve_churn's writer: every period it swaps kSwapsPerBatch of the
// kSwapPairs (resident row, alternate row) pairs, rotating through them.
constexpr size_t kSwapPairs = 32;
constexpr size_t kSwapsPerBatch = 8;
constexpr auto kWriterPeriod = std::chrono::milliseconds(10);
constexpr size_t kWarmupSyncs = 3;

enum class Kind { kEmd, kServe, kGap };

struct Spec {
  std::string name;
  Kind kind = Kind::kEmd;
  /// Input shape; the seed is filled in per ring entry. serve_churn uses
  /// only metric, dim, delta and n.
  NoisyPairConfig input;
  /// serve_churn: server rows each client lacks besides the writer's swap
  /// pairs (it holds as many fresh rows instead).
  size_t fresh_rows = 0;
  EmdProtocolParams emd;
  GapProtocolParams gap;
};

size_t HostThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

const char* CodecName(WireCodec codec) {
  return codec == WireCodec::kClassic ? "classic" : "compact";
}

// Every parameter is set here, codec included, so no environment override
// (RSR_WIRE_CODEC) can change a run. Every exchange runs on one thread (see
// README.md, "Threads and sizes").
bool MakeSpec(const std::string& name, bool smoke, Spec* spec) {
  spec->name = name;
  NoisyPairConfig& in = spec->input;
  EmdProtocolParams& emd = spec->emd;
  in.metric = emd.metric = MetricKind::kL2;
  in.dim = emd.dim = 16;
  in.delta = emd.delta = 1023;
  emd.num_threads = 1;
  if (name == "emd_wide_prior") {
    spec->kind = Kind::kEmd;
    in.n = smoke ? 256 : 1024;
    in.outliers = 8;
    in.noise = 2;
    in.outlier_dist = 200;
    emd.k = 8;
    emd.d1 = 8;
    emd.d2 = 8192;
    emd.codec = WireCodec::kClassic;
  } else if (name == "emd_large_diff") {
    spec->kind = Kind::kEmd;
    in.n = smoke ? 1024 : 8192;
    in.outliers = smoke ? 32 : 256;
    emd.k = in.outliers;
    emd.d1 = 64;
    emd.d2 = 256;
    emd.adaptive.enabled = true;
    emd.adaptive.rounding = CellRounding::kExact;
    emd.codec = WireCodec::kCompact;
  } else if (name == "serve_churn") {
    spec->kind = Kind::kServe;
    in.n = smoke ? 2048 : 32768;
    spec->fresh_rows = 16;
    emd.k = 64;
    emd.d1 = 16;
    emd.d2 = 64;
    emd.adaptive.enabled = true;
    emd.adaptive.rounding = CellRounding::kDivisorLadder;
    emd.codec = WireCodec::kCompact;
  } else if (name == "gap_hamming") {
    spec->kind = Kind::kGap;
    in.metric = MetricKind::kHamming;
    in.dim = 1024;
    in.delta = 1;
    in.n = smoke ? 256 : 2048;
    in.outliers = 4;
    in.noise = 2;
    in.outlier_dist = 320;
    GapProtocolParams& gap = spec->gap;
    gap.metric = in.metric;
    gap.dim = in.dim;
    gap.delta = in.delta;
    gap.r1 = 4;
    gap.r2 = 192;
    gap.k = in.outliers;
    gap.h_multiplier = 4;
    gap.reconciler.mode = SetsReconcilerMode::kFingerprint;
    gap.reconciler.codec = WireCodec::kClassic;
    gap.num_threads = 1;
  } else {
    return false;
  }
  return true;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank 95th percentile.
double P95(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Report point sets are read through these, so the checks work whether a
// report holds a PointSet or a PointStore.
template <typename Rows, typename Fn>
void ForEachRow(const Rows& rows, Fn&& fn) {
  if constexpr (std::is_same_v<Rows, PointStore>) {
    for (size_t i = 0; i < rows.size(); ++i) fn(rows.row(i));
  } else {
    for (const auto& point : rows) fn(point.coords().data());
  }
}

template <typename Rows>
bool AllInDomain(const Rows& rows, size_t dim, Coord delta) {
  bool ok = true;
  ForEachRow(rows, [&](const Coord* row) {
    ok = ok && PointRef(row, dim).InDomain(delta);
  });
  return ok;
}

/// Counts per operation, summed over a run.
struct Counters {
  size_t ops = 0;
  double evals = 0;
  double cells_sent = 0;
  double cells_cap = 0;
  double levels_decoded = 0;
  double levels_total = 0;
  double match_rows = 0;
  double rows_assembled = 0;
  double sig_attempts = 0;
  double elem_attempts = 0;
  double fallback_sets = 0;
  double diff_elements = 0;

  void Add(const Counters& o) {
    ops += o.ops;
    evals += o.evals;
    cells_sent += o.cells_sent;
    cells_cap += o.cells_cap;
    levels_decoded += o.levels_decoded;
    levels_total += o.levels_total;
    match_rows += o.match_rows;
    rows_assembled += o.rows_assembled;
    sig_attempts += o.sig_attempts;
    elem_attempts += o.elem_attempts;
    fallback_sets += o.fallback_sets;
    diff_elements += o.diff_elements;
  }
};

/// `rows_evaluated`: rows hashed by both parties together.
Counters EmdCounters(const EmdProtocolReport& r, size_t rows_evaluated) {
  Counters c;
  c.ops = 1;
  c.evals = static_cast<double>(rows_evaluated * r.derived.s);
  for (size_t cells : r.level_cells) c.cells_sent += static_cast<double>(cells);
  c.cells_cap = static_cast<double>(r.derived.levels * r.derived.cells);
  for (const EmdLevelOutcome& level : r.levels) {
    c.levels_decoded += level.decoded ? 1 : 0;
  }
  c.levels_total = static_cast<double>(r.levels.size());
  c.match_rows = static_cast<double>(r.x_b.size());
  c.rows_assembled = static_cast<double>(r.s_b_prime.size());
  return c;
}

Counters GapCounters(const GapProtocolReport& r, size_t rows_evaluated) {
  Counters c;
  c.ops = 1;
  c.evals = static_cast<double>(rows_evaluated * r.derived.h * r.derived.m);
  c.rows_assembled = static_cast<double>(r.s_b_prime.size());
  c.sig_attempts = r.reconciliation.sig_attempts;
  c.elem_attempts = r.reconciliation.elem_attempts;
  c.fallback_sets = static_cast<double>(r.reconciliation.fallback_sets);
  c.diff_elements = static_cast<double>(r.reconciliation.diff_elements);
  return c;
}

/// Failures (the protocol reporting failure, allowed at a bounded rate) and
/// errors (an error status, a wrong output, a replay that differs: never
/// allowed), over the operations attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failures = 0;
  uint64_t errors = 0;
  std::vector<std::string> messages;

  void Error(std::string message) {
    ++errors;
    if (messages.size() < 5) messages.push_back(std::move(message));
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    failures += o.failures;
    errors += o.errors;
    for (const std::string& m : o.messages) {
      if (messages.size() < 5) messages.push_back(m);
    }
  }
};

/// Theorem 3.4's correctness for one EMD exchange: |S'_B| = n and every
/// point in the domain. A reported failure is tallied, not an error.
void CheckEmd(const EmdProtocolReport& r, size_t n, size_t dim, Coord delta,
              Tally* tally) {
  if (r.failure) {
    ++tally->failures;
  } else if (r.s_b_prime.size() != n) {
    tally->Error("|S'_B| != n");
  } else if (!AllInDomain(r.s_b_prime, dim, delta)) {
    tally->Error("S'_B has a point outside the domain");
  }
}

size_t MinOps(const RunOptions& opt) {
  return opt.smoke ? kMinSmokeOps : opt.trace ? kMinTracedOps : kMinOps;
}

/// The counts and checks every workload shares, and the values every run
/// reports beside its metrics.
void RecordTally(const Tally& tally, size_t ops, size_t min_ops,
                 double window_s, RunResult* result) {
  result->attempted = tally.attempted;
  result->failed = tally.failures + tally.errors;
  result->errors.insert(result->errors.end(), tally.messages.begin(),
                        tally.messages.end());
  if (8 * tally.failures > tally.attempted) {
    result->errors.push_back("failure rate above 1/8 (Theorem 3.4)");
  }
  if (ops < min_ops) {
    result->errors.push_back("too few operations for the percentiles");
  }
  result->extra.push_back(
      {"failure_rate",
       static_cast<double>(result->failed) /
           static_cast<double>(std::max<uint64_t>(tally.attempted, 1)),
       "ratio"});
  result->extra.push_back({"window_s", window_s, "s"});
}

struct WriterStats {
  std::vector<double> wait_ms;   // due time to call start
  std::vector<double> apply_ms;  // ApplyBatch duration
  std::vector<double> late_ms;   // due time to completion
  double rows = 0;
  double seconds = 0;
};

/// The per-layer metrics, in BENCHMARK.json order. Layers a workload does
/// not run read 0.
std::vector<MetricValue> PerLayerMetrics(const std::vector<OpBreakdown>& ops,
                                         const Counters& c,
                                         double untraced_p50,
                                         const WriterStats& writer,
                                         double copies_per_sync) {
  auto self_p50 = [&](Layer layer) {
    std::vector<double> v;
    v.reserve(ops.size());
    for (const OpBreakdown& op : ops) {
      v.push_back(op.self_ms[static_cast<size_t>(layer)]);
    }
    return Median(std::move(v));
  };
  auto per_op = [&](double sum) {
    return c.ops == 0 ? 0.0 : sum / static_cast<double>(c.ops);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<double> traced_ms;
  std::vector<double> coverage_pct;
  for (const OpBreakdown& op : ops) {
    traced_ms.push_back(op.total_ms);
    coverage_pct.push_back(100.0 * ratio(op.covered_ms, op.total_ms));
  }
  const double traced_p50 = Median(traced_ms);
  return {
      {"lsh.eval_ms", self_p50(Layer::kLshEval), "ms"},
      {"lsh.evals_per_op", per_op(c.evals), "count"},
      {"emd_sketch.hashes_ms", self_p50(Layer::kEmdHashes), "ms"},
      {"emd_sketch.keys_ms", self_p50(Layer::kEmdKeys), "ms"},
      {"adaptive.estimators_ms", self_p50(Layer::kAdaptiveEstimators), "ms"},
      {"adaptive.negotiate_ms", self_p50(Layer::kAdaptiveNegotiate), "ms"},
      {"adaptive.cells_vs_cap", ratio(c.cells_sent, c.cells_cap), "ratio"},
      {"riblt.build_ms", self_p50(Layer::kRibltBuild), "ms"},
      {"riblt.fold_ms", self_p50(Layer::kRibltFold), "ms"},
      {"riblt.encode_ms", self_p50(Layer::kRibltEncode), "ms"},
      {"riblt.parse_ms", self_p50(Layer::kRibltParse), "ms"},
      {"riblt.subtract_ms", self_p50(Layer::kRibltSubtract), "ms"},
      {"riblt.peel_ms", self_p50(Layer::kRibltPeel), "ms"},
      {"riblt.cells_sent_per_op", per_op(c.cells_sent), "count"},
      {"riblt.levels_decoded_ratio", ratio(c.levels_decoded, c.levels_total),
       "ratio"},
      {"emd.match_ms", self_p50(Layer::kEmdMatch), "ms"},
      {"emd.match_rows_per_op", per_op(c.match_rows), "count"},
      {"geometry.assemble_ms", self_p50(Layer::kGeometryAssemble), "ms"},
      {"geometry.rows_assembled_per_op", per_op(c.rows_assembled), "count"},
      {"sync_server.snapshot_ms", self_p50(Layer::kSyncSnapshot), "ms"},
      {"sync_server.snapshot_copies_per_sync", copies_per_sync, "ratio"},
      {"sync_dataset.apply_ms", Median(writer.apply_ms), "ms"},
      {"sync_dataset.wait_ms", Median(writer.wait_ms), "ms"},
      {"sync_dataset.rows_per_s", ratio(writer.rows, writer.seconds), "1/s"},
      {"sync_dataset.mutation_ms_p50", Median(writer.late_ms), "ms"},
      {"sync_dataset.mutation_ms_p95", P95(writer.late_ms), "ms"},
      {"gap.hashes_ms", self_p50(Layer::kGapHashes), "ms"},
      {"gap.keys_ms", self_p50(Layer::kGapKeys), "ms"},
      {"setsets.reconcile_ms", self_p50(Layer::kSetsetsReconcile), "ms"},
      {"gap.far_ms", self_p50(Layer::kGapFar), "ms"},
      {"setsets.sig_attempts_per_op", per_op(c.sig_attempts), "count"},
      {"setsets.elem_attempts_per_op", per_op(c.elem_attempts), "count"},
      {"setsets.fallback_sets_per_op", per_op(c.fallback_sets), "count"},
      {"setsets.diff_elements_per_op", per_op(c.diff_elements), "count"},
      {"trace.overhead_pct", 100.0 * (ratio(traced_p50, untraced_p50) - 1.0),
       "%"},
      {"trace.coverage_pct", Median(coverage_pct), "%"},
  };
}

/// The end-to-end metrics, in BENCHMARK.json order. p95 latency and
/// throughput follow the host's speed too closely for a bound (their spread
/// over ten runs reached 44% and 28%; README.md, "Calibration"), so they are
/// reported beside the metrics instead.
void ReportEndToEnd(const std::vector<double>& op_ms, double window_s,
                    double completed, double bytes_sum, double rounds_sum,
                    double setup_s, RunResult* result) {
  const double per_op = completed > 0 ? 1.0 / completed : 0.0;
  result->metrics = {
      {"op_ms_p50", Median(op_ms), "ms"},
      {"wire_bytes_per_op", bytes_sum * per_op, "B"},
      {"rounds_per_op", rounds_sum * per_op, "msgs"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
  result->extra.push_back({"op_ms_p95", P95(op_ms), "ms"});
  result->extra.push_back(
      {"ops_per_s", window_s > 0 ? completed / window_s : 0.0, "1/s"});
}

/// Set-up repeats at least kSetupReps times and for at least kSetupSeconds
/// (short set-ups are noisy), at most kMaxSetupReps times.
bool MoreSetups(size_t done, Clock::time_point start) {
  return done < kSetupReps ||
         (done < kMaxSetupReps && SecondsSince(start) < kSetupSeconds);
}

bool WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  bool ok =
      std::fprintf(out, "{\"workload\":\"%s\",\"spans\":[", workload.c_str()) >
      0;
  bool first = true;
  for (size_t t = 0; t < tracers.size() && ok; ++t) {
    ok = WriteSpansJson(tracers[t]->spans(), static_cast<int>(t), first, out);
    first = first && tracers[t]->spans().empty();
  }
  ok = ok && std::fprintf(out, "\n]}\n") > 0;
  return std::fclose(out) == 0 && ok;
}

// ---- One-shot workloads ---------------------------------------------------

struct InputPair {
  PointStore alice;
  PointStore bob;
  PointStore alice_outliers;
};

Result<std::vector<InputPair>> MakeRing(const Spec& spec, uint64_t seed) {
  std::vector<InputPair> ring;
  ring.reserve(kRing);
  for (size_t j = 0; j < kRing; ++j) {
    NoisyPairConfig config = spec.input;
    config.seed = HashCombine(seed, j);
    RSR_ASSIGN_OR_RETURN(NoisyPairStoreWorkload w,
                         GenerateNoisyPairStore(config));
    ring.push_back(InputPair{std::move(w.alice), std::move(w.bob),
                             std::move(w.alice_outliers)});
  }
  return ring;
}

struct EmdOneShot {
  const Spec& spec;

  EmdProtocolParams Params(uint64_t seed) const {
    EmdProtocolParams params = spec.emd;
    params.seed = seed;
    return params;
  }
  Result<EmdProtocolReport> Run(const InputPair& in, uint64_t seed) const {
    return RunEmdProtocol(in.alice, in.bob, Params(seed));
  }
  Result<EmdProtocolReport> Replay(const InputPair& in, uint64_t seed,
                                   Tracer& tracer) const {
    return ReplayEmdProtocol(in.alice, in.bob, Params(seed), tracer);
  }
  void Check(const InputPair& in, const EmdProtocolReport& r,
             Tally* tally) const {
    CheckEmd(r, in.bob.size(), spec.input.dim, spec.input.delta, tally);
  }
  Counters Count(const InputPair& in, const EmdProtocolReport& r) const {
    return EmdCounters(r, 2 * in.bob.size());
  }
};

struct GapOneShot {
  const Spec& spec;

  GapProtocolParams Params(uint64_t seed) const {
    GapProtocolParams params = spec.gap;
    params.seed = seed;
    return params;
  }
  Result<GapProtocolReport> Run(const InputPair& in, uint64_t seed) const {
    return RunGapProtocol(in.alice, in.bob, Params(seed));
  }
  Result<GapProtocolReport> Replay(const InputPair& in, uint64_t seed,
                                   Tracer& tracer) const {
    return ReplayGapProtocol(in.alice, in.bob, Params(seed), tracer);
  }
  /// Theorem 4.2's guarantee where it can fail: every Alice outlier lies
  /// within r2 of S'_B (Alice's close points are within r1 of Bob's).
  void Check(const InputPair& in, const GapProtocolReport& r,
             Tally* tally) const {
    const Metric metric(spec.gap.metric);
    const size_t dim = spec.gap.dim;
    for (size_t i = 0; i < in.alice_outliers.size(); ++i) {
      double nearest = 1e300;
      ForEachRow(r.s_b_prime, [&](const Coord* row) {
        nearest = std::min(
            nearest, metric.Distance(in.alice_outliers.row(i), row, dim));
      });
      if (nearest > spec.gap.r2) {
        tally->Error("an Alice outlier is farther than r2 from S'_B");
        return;
      }
    }
  }
  Counters Count(const InputPair& in, const GapProtocolReport& r) const {
    return GapCounters(r, in.alice.size() + in.bob.size());
  }
};

template <typename Protocol>
void RunOneShot(const Spec& spec, const RunOptions& opt,
                const Protocol& protocol, RunResult* result) {
  // ---- Set-up: the ring of input pairs, generated repeatedly. ----
  std::vector<double> setup_s;
  std::vector<InputPair> ring;
  for (const auto setup_start = Clock::now();
       MoreSetups(setup_s.size(), setup_start);) {
    ring.clear();
    const auto t0 = Clock::now();
    Result<std::vector<InputPair>> made = MakeRing(spec, opt.seed);
    setup_s.push_back(SecondsSince(t0));
    if (!made.ok()) {
      result->errors.push_back("input generation: " +
                               made.status().ToString());
      return;
    }
    ring = std::move(*made);
  }
  const size_t dim = spec.input.dim;

  // ---- Warm-up: exchanges 0..kRing-1, one per ring entry, so every
  // store's lazily built caches exist before timing starts. ----
  for (size_t i = 0; i < kRing; ++i) {
    auto warm = protocol.Run(ring[i], opt.seed + i);
    if (!warm.ok()) {
      result->errors.push_back("warm-up: " + warm.status().ToString());
      return;
    }
  }

  // ---- Window: exchange i runs on ring entry i mod kRing with protocol
  // seed + i. Replays and checks are excluded from the window's time. ----
  Tally tally;
  Counters counters;
  Tracer tracer(opt.trace ? kTraceCapacity : 0);
  std::vector<double> op_ms;
  op_ms.reserve(4096);
  double bytes_sum = 0;
  double rounds_sum = 0;
  double completed = 0;
  const size_t min_ops = MinOps(opt);
  const auto start = Clock::now();
  for (size_t i = kRing;; ++i) {
    const double elapsed = SecondsSince(start);
    if ((elapsed >= opt.seconds && op_ms.size() >= min_ops) ||
        elapsed >= kHardCapSeconds) {
      break;
    }
    const InputPair& in = ring[i % kRing];
    const uint64_t seed = opt.seed + i;
    // The traced replay runs before the shipped call on odd exchanges and
    // after it on even ones, so neither side always meets warm caches.
    std::optional<decltype(protocol.Run(in, seed))> replayed;
    auto replay = [&] {
      tracer.BeginOp(static_cast<uint32_t>(i));
      ScopedSpan op(tracer, Layer::kOp);
      replayed.emplace(protocol.Replay(in, seed, tracer));
    };
    if (opt.trace && i % 2 == 1) replay();
    const auto t0 = Clock::now();
    auto shipped = protocol.Run(in, seed);
    const auto t1 = Clock::now();
    if (opt.trace && i % 2 == 0) replay();
    ++tally.attempted;
    op_ms.push_back(MsBetween(t0, t1));
    if (!shipped.ok()) {
      tally.Error("exchange: " + shipped.status().ToString());
      continue;
    }
    completed += 1;
    bytes_sum += static_cast<double>(shipped->comm.total_bytes());
    rounds_sum += shipped->comm.rounds();
    protocol.Check(in, *shipped, &tally);
    if (!replayed) continue;
    if (!replayed->ok()) {
      tally.Error("replay: " + replayed->status().ToString());
      continue;
    }
    const std::string diff = SameExchange(*shipped, **replayed, dim);
    if (!diff.empty()) tally.Error("replay differs from shipped: " + diff);
    counters.Add(protocol.Count(in, **replayed));
  }
  // One closed-loop caller: throughput over the time spent in exchanges
  // (replays and checks excluded).
  double window_s = 0;
  for (double ms : op_ms) window_s += ms / 1000;

  if (opt.trace) {
    result->metrics = PerLayerMetrics(BreakDownOps(tracer.spans()), counters,
                                      Median(op_ms), WriterStats{}, 0.0);
    if (!opt.trace_out.empty() &&
        !WriteTrace(opt.trace_out, spec.name, {&tracer})) {
      result->errors.push_back("cannot write " + opt.trace_out);
    }
  } else {
    ReportEndToEnd(op_ms, window_s, completed, bytes_sum, rounds_sum,
                   Median(setup_s), result);
  }
  RecordTally(tally, op_ms.size(), min_ops, window_s, result);
}

// ---- serve_churn ------------------------------------------------------------

struct Reader {
  PointStore client;
  Tally tally;
  Counters counters;
  std::vector<double> op_ms;
  std::vector<uint64_t> generations;
  double bytes_sum = 0;
  double rounds_sum = 0;
  double completed = 0;
  Clock::time_point finished;
  Tracer tracer{0};
};

struct Batch {
  PointStore inserts;
  std::vector<uint64_t> deletes;
};

/// Closed loop: sync, check, optionally replay, until `end`.
void ReaderLoop(SyncServer& server, const Spec& spec, bool trace,
                Clock::time_point start, Clock::time_point end,
                Reader* reader) {
  const size_t n = spec.input.n;
  const PointStore& client = reader->client;
  Tracer& tracer = reader->tracer;
  std::this_thread::sleep_until(start);
  for (uint32_t i = 0; Clock::now() < end; ++i) {
    // As in the one-shot loop, the replay alternates sides of the sync.
    std::shared_ptr<const SyncSnapshot> snapshot;
    std::optional<Result<EmdProtocolReport>> replayed;
    auto replay = [&] {
      tracer.BeginOp(i);
      ScopedSpan op(tracer, Layer::kOp);
      {
        ScopedSpan span(tracer, Layer::kSyncSnapshot);
        snapshot = server.AcquireSnapshot();
      }
      replayed.emplace(ReplayEmdPrebuilt(snapshot->sketches, client,
                                         snapshot->params, tracer));
    };
    if (trace && i % 2 == 1) replay();
    const auto t0 = Clock::now();
    SyncSession session = server.OpenSession();
    Result<EmdProtocolReport> report = session.Run(client);
    const auto t1 = Clock::now();
    if (trace && i % 2 == 0) replay();
    ++reader->tally.attempted;
    reader->op_ms.push_back(MsBetween(t0, t1));
    reader->generations.push_back(session.generation());
    if (!report.ok()) {
      reader->tally.Error("sync: " + report.status().ToString());
      continue;
    }
    reader->completed += 1;
    reader->bytes_sum += static_cast<double>(report->comm.total_bytes());
    reader->rounds_sum += report->comm.rounds();
    CheckEmd(*report, n, spec.input.dim, spec.input.delta, &reader->tally);
    if (!replayed) continue;
    if (!replayed->ok()) {
      reader->tally.Error("replay: " + replayed->status().ToString());
      continue;
    }
    // The writer may have moved the dataset on between the two; the replay
    // is compared with a shipped sync on the replay's own snapshot.
    Result<EmdProtocolReport> reference =
        snapshot->generation == session.generation()
            ? std::move(report)
            : SyncSession(snapshot).Run(client);
    const std::string diff =
        reference.ok() ? SameExchange(*reference, **replayed, spec.input.dim)
                       : reference.status().ToString();
    if (!diff.empty()) reader->tally.Error("replay differs: " + diff);
    reader->counters.Add(EmdCounters(**replayed, n));
  }
  reader->finished = Clock::now();
}

/// Open loop: batch b is due at start + b * period; a late batch is applied
/// at once, so a stall shows as lateness of the batches behind it.
void WriterLoop(SyncServer& server, const std::vector<Batch>& batches,
                bool trace, Clock::time_point start, Clock::time_point end,
                WriterStats* stats, Tracer* tracer, std::string* error) {
  for (uint32_t b = 0;; ++b) {
    const Clock::time_point due = start + b * kWriterPeriod;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const Batch& batch = batches[b % batches.size()];
    const auto t0 = Clock::now();
    Status status;
    if (trace) {
      tracer->BeginOp(b);
      ScopedSpan span(*tracer, Layer::kSyncApply);
      status = server.ApplyBatch(batch.inserts, batch.deletes);
    } else {
      status = server.ApplyBatch(batch.inserts, batch.deletes);
    }
    const auto t1 = Clock::now();
    if (!status.ok()) {
      *error = "ApplyBatch: " + status.ToString();
      return;
    }
    stats->wait_ms.push_back(MsBetween(due, t0));
    stats->apply_ms.push_back(MsBetween(t0, t1));
    stats->late_ms.push_back(MsBetween(due, t1));
    stats->rows += static_cast<double>(batch.inserts.size() +
                                       batch.deletes.size());
  }
  stats->seconds = std::chrono::duration<double>(end - start).count();
}

void RunServe(const Spec& spec, const RunOptions& opt, RunResult* result) {
  const size_t readers = std::max<size_t>(1, std::min<size_t>(3, HostThreads() - 1));
  const size_t n = spec.input.n;
  const size_t dim = spec.input.dim;
  const size_t fresh = spec.fresh_rows;

  // Rows [0, n) seed the server; the first kSwapPairs of them swap with
  // rows [n, n + kSwapPairs). No client holds either row of a pair, so the
  // writer changes which server rows a client lacks but never how many:
  // reader r's client lacks the kSwapPairs pair rows and server rows
  // [kSwapPairs + r * fresh, + fresh), and holds as many fresh rows instead.
  const size_t own = kSwapPairs + fresh;  // fresh rows per client
  Rng rng(HashCombine(opt.seed, 0x5e7e));
  const PointStore rows = GenerateUniformStore(
      n + kSwapPairs + readers * own, dim, spec.input.delta, &rng);
  PointStore initial(dim);
  initial.Reserve(n);
  for (size_t i = 0; i < n; ++i) initial.Append(rows[i]);
  std::vector<Reader> state(readers);
  for (size_t r = 0; r < readers; ++r) {
    PointStore& client = state[r].client;
    client = PointStore(dim);
    client.Reserve(n);
    const size_t dropped = kSwapPairs + r * fresh;
    for (size_t i = kSwapPairs; i < n; ++i) {
      if (i < dropped || i >= dropped + fresh) client.Append(rows[i]);
    }
    for (size_t j = 0; j < own; ++j) {
      client.Append(rows[n + kSwapPairs + r * own + j]);
    }
    state[r].op_ms.reserve(8192);
    if (opt.trace) state[r].tracer = Tracer(kTraceCapacity);
  }

  // ---- Set-up: the serving state, built repeatedly. ----
  EmdProtocolParams params = spec.emd;
  params.seed = opt.seed;
  std::unique_ptr<SyncServer> server;
  std::vector<double> setup_s;
  for (const auto setup_start = Clock::now();
       MoreSetups(setup_s.size(), setup_start);) {
    server.reset();
    const auto t0 = Clock::now();
    Result<SyncDataset> dataset = SyncDataset::Create(initial, params);
    if (!dataset.ok()) {
      result->errors.push_back("SyncDataset::Create: " +
                               dataset.status().ToString());
      return;
    }
    dataset->Reserve(n + kSwapsPerBatch);
    server = std::make_unique<SyncServer>(std::move(*dataset));
    server->AcquireSnapshot();
    setup_s.push_back(SecondsSince(t0));
  }

  // Batch v swaps group v mod 4 of the pairs, towards the alternate rows for
  // v < 4 and back for v >= 4, so eight batches restore the start state.
  std::vector<Batch> batches(2 * kSwapPairs / kSwapsPerBatch);
  for (size_t v = 0; v < batches.size(); ++v) {
    const size_t groups = kSwapPairs / kSwapsPerBatch;
    const bool forward = v < groups;
    batches[v].inserts = PointStore(dim);
    for (size_t j = 0; j < kSwapsPerBatch; ++j) {
      const size_t p = (v % groups) * kSwapsPerBatch + j;
      const size_t resident = p;
      const size_t alternate = n + p;
      batches[v].inserts.Append(rows[forward ? alternate : resident]);
      batches[v].deletes.push_back(
          server->KeyOf(rows[forward ? resident : alternate]));
    }
  }

  for (const Reader& reader : state) {
    for (size_t i = 0; i < kWarmupSyncs; ++i) {
      Result<EmdProtocolReport> warm = server->OpenSession().Run(reader.client);
      if (!warm.ok()) {
        result->errors.push_back("warm-up: " + warm.status().ToString());
        return;
      }
    }
  }

  // ---- Window: readers and the writer share one start and end. ----
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds));
  WriterStats writer;
  writer.wait_ms.reserve(8192);
  writer.apply_ms.reserve(8192);
  writer.late_ms.reserve(8192);
  Tracer writer_tracer(opt.trace ? kTraceCapacity : 0);
  std::string writer_error;
  {
    std::vector<std::thread> threads;
    for (Reader& reader : state) {
      threads.emplace_back(ReaderLoop, std::ref(*server), std::cref(spec),
                           opt.trace, start, end, &reader);
    }
    threads.emplace_back(WriterLoop, std::ref(*server), std::cref(batches),
                         opt.trace, start, end, &writer, &writer_tracer,
                         &writer_error);
    for (std::thread& t : threads) t.join();
  }

  Tally tally;
  Counters counters;
  std::vector<double> op_ms;
  std::set<uint64_t> generations;
  double bytes_sum = 0;
  double rounds_sum = 0;
  double completed = 0;
  Clock::time_point last = start;
  std::vector<OpBreakdown> breakdown;
  for (const Reader& reader : state) {
    tally.Add(reader.tally);
    counters.Add(reader.counters);
    op_ms.insert(op_ms.end(), reader.op_ms.begin(), reader.op_ms.end());
    generations.insert(reader.generations.begin(), reader.generations.end());
    bytes_sum += reader.bytes_sum;
    rounds_sum += reader.rounds_sum;
    completed += reader.completed;
    last = std::max(last, reader.finished);
    std::vector<OpBreakdown> ops = BreakDownOps(reader.tracer.spans());
    breakdown.insert(breakdown.end(), ops.begin(), ops.end());
  }
  const double window_s = std::chrono::duration<double>(last - start).count();
  const double late_p95 = P95(writer.late_ms);

  if (!writer_error.empty()) result->errors.push_back(writer_error);
  if (!(late_p95 < MsBetween(start, start + kWriterPeriod))) {
    result->errors.push_back("writer p95 lateness is a whole period or more");
  }
  const double copies_per_sync =
      static_cast<double>(generations.size()) /
      static_cast<double>(std::max<size_t>(op_ms.size(), 1));
  if (opt.trace) {
    result->metrics = PerLayerMetrics(breakdown, counters, Median(op_ms),
                                      writer, copies_per_sync);
    std::vector<const Tracer*> tracers;
    for (const Reader& reader : state) tracers.push_back(&reader.tracer);
    tracers.push_back(&writer_tracer);
    if (!opt.trace_out.empty() &&
        !WriteTrace(opt.trace_out, spec.name, tracers)) {
      result->errors.push_back("cannot write " + opt.trace_out);
    }
  } else {
    ReportEndToEnd(op_ms, window_s, completed, bytes_sum, rounds_sum,
                   Median(setup_s), result);
    result->extra.push_back(
        {"mutation_ms_p50", Median(writer.late_ms), "ms"});
    result->extra.push_back({"mutation_ms_p95", late_p95, "ms"});
  }
  RecordTally(tally, op_ms.size(), MinOps(opt), window_s, result);
  result->config.emplace_back("readers", std::to_string(readers));
  result->config.emplace_back("writer_batches_per_s", "100");
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"emd_wide_prior", "emd_large_diff", "serve_churn", "gap_hamming"};
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  Spec spec;
  if (!MakeSpec(options.workload, options.smoke, &spec)) {
    result.correct = false;
    result.errors.push_back("unknown workload " + options.workload);
    return result;
  }
  const bool gap = spec.kind == Kind::kGap;
  result.config = {
      {"nproc", std::to_string(HostThreads())},
      {"cpu_features", CpuFeatureString()},
      {"batch_kernel", lsh_internal::ActiveBatchKernelName()},
      {"codec", CodecName(gap ? spec.gap.reconciler.codec : spec.emd.codec)},
      {"num_threads",
       std::to_string(gap ? spec.gap.num_threads : spec.emd.num_threads)},
      {"n", std::to_string(spec.input.n)},
      {"dim", std::to_string(spec.input.dim)},
  };
  switch (spec.kind) {
    case Kind::kEmd:
      RunOneShot(spec, options, EmdOneShot{spec}, &result);
      break;
    case Kind::kGap:
      RunOneShot(spec, options, GapOneShot{spec}, &result);
      break;
    case Kind::kServe:
      RunServe(spec, options, &result);
      break;
  }
  if (!result.errors.empty()) result.correct = false;
  return result;
}

}  // namespace rsr::e2e
