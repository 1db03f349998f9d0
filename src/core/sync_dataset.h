// Incrementally maintained EMD sketch state (the "standing sketch" model).
//
// Every protocol entry point historically rebuilt all per-level RIBLTs and
// strata estimators from scratch over a static PointStore — O(n · levels)
// hashing per sync. SyncDataset inverts that: it owns the point set, the
// full per-level RIBLT set, and the per-level strata estimators, and folds
// each point insert/delete into every maintained sketch as signed cell
// updates — O(levels · k) work per mutation, independent of n, and no full
// rebuild ever after construction.
//
// Correctness rests on cell linearity: RIBLT cells hold sums (counts,
// 128-bit key sums, checksum sums, per-dimension value sums) and strata
// cells hold XORs plus counts, so insert-then-delete cancels EXACTLY and
// cell contents are order-independent. A SyncDataset after any interleaving
// of inserts and deletes is therefore cell-for-cell (WriteTo byte-identical)
// equal to a cold BuildEmdSketches over the surviving point set — pinned by
// sync_dataset_test across level ladders and thread counts. Create fills its
// tables through the same BuildEmdLevelTables as that cold build.
//
// Identity model: a row's key is its content hash under the dataset seed
// (PointRef::ContentHash(params.seed) — the same identity multiparty.cc
// uses). The dataset is a SET under that identity: inserting a row whose key
// is already present is an error, which keeps Delete(key) unambiguous and
// sidesteps the XOR-estimator multiset parity caveat (sketch/README.md).
//
// Thread model: a SyncDataset is externally synchronized (one writer at a
// time; SyncServer wraps it with a mutex and hands concurrent readers
// immutable snapshots — core/sync_server.h).
#ifndef RSR_CORE_SYNC_DATASET_H_
#define RSR_CORE_SYNC_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/emd_sketch.h"
#include "core/params.h"
#include "geometry/point_store.h"
#include "lsh/eval_pipeline.h"
#include "util/status.h"

namespace rsr {

class SyncDataset {
 public:
  /// Builds the maintained state over `initial` (nonempty; all rows distinct
  /// under the content-hash identity). Requirements beyond the static
  /// protocol's:
  ///   - params.d2 > 0: with d2 == 0 the level ladder is derived from n,
  ///     which churn changes — the maintained tables would stop matching the
  ///     derivation. An explicit d2 makes every derived quantity
  ///     n-independent.
  ///   - params.adaptive, when enabled, must use
  ///     CellRounding::kDivisorLadder: the maintained tables are statically
  ///     sized at derived.cells (the cap), and adaptive exchanges are served
  ///     by FOLDING them down to the negotiated rung
  ///     (RunEmdProtocolPrebuilt -> FoldEmdSketches) — only ladder rungs are
  ///     foldable. kExact rounding is rejected. (Estimators are maintained
  ///     regardless — shaped by params.adaptive — and feed the negotiation
  ///     round without any O(n) rebuild.)
  /// The initial build is exactly BuildEmdSketches (same hashes, same build
  /// order); everything afterwards is incremental.
  static Result<SyncDataset> Create(const PointStore& initial,
                                    const EmdProtocolParams& params);

  SyncDataset(SyncDataset&&) = default;
  SyncDataset& operator=(SyncDataset&&) = default;

  /// The key Insert assigned / Delete expects for `row`.
  uint64_t KeyOf(PointRef row) const;

  /// Inserts one row: hashes it once through the dispatched batch kernels
  /// (EvaluateEmdRowsInto over the appended tail), derives its level keys,
  /// and applies +1 cell updates to every level table and estimator. Returns
  /// the row's key. InvalidArgument if the key is already present; the
  /// dataset is unchanged on error. Warm calls (capacity Reserved, a
  /// same-shape mutation seen before, num_threads <= 1) perform zero heap
  /// allocations.
  Result<uint64_t> Insert(PointRef row);

  /// Deletes the row with `key`, applying -1 cell updates from the cached
  /// per-row level keys (no re-hashing). InvalidArgument if absent; the
  /// dataset is unchanged on error. Zero allocations when warm.
  Status Delete(uint64_t key);

  /// Batched mutation: all of `inserts`, then all of `delete_keys` — one
  /// tail evaluation through the batch kernels for the whole insert set.
  /// Validated up front (atomic): insert keys must be absent and distinct,
  /// delete keys distinct and present in the dataset or among the inserts;
  /// on any violation nothing is applied. Bumps the generation once.
  Status ApplyBatch(const PointStore& inserts,
                    std::span<const uint64_t> delete_keys);

  /// Pre-sizes rows, key index, and per-row caches for `capacity` rows so
  /// growth to that size never reallocates mid-mutation.
  void Reserve(size_t capacity);

  size_t size() const { return rows_.size(); }
  /// Bumped once per successful mutation call; SyncServer uses it to
  /// invalidate cached snapshots.
  uint64_t generation() const { return generation_; }

  /// The maintained sketch set (tables + estimators, n kept current).
  /// Borrowed for serving (RunEmdProtocolPrebuilt) and snapshotting; readers
  /// must not outlive the next mutation unless they copied.
  const EmdSketchSet& sketches() const { return sketches_; }
  /// The surviving rows (order is maintenance order: deletes swap the last
  /// row into the hole; sketch cells are order-independent so this is
  /// invisible on the wire).
  const PointStore& rows() const { return rows_; }
  const EmdProtocolParams& params() const { return params_; }

 private:
  /// Flat open-addressing key -> row-slot map (linear probing, tombstones).
  /// A node-based map would allocate on every insert; this one only
  /// reallocates on growth, so Reserve()d warm mutations stay allocation-
  /// free.
  struct RowIndex {
    static constexpr uint32_t kNoRow = 0xffffffffu;
    static constexpr uint8_t kEmpty = 0, kFull = 1, kTombstone = 2;

    std::vector<uint64_t> keys;
    std::vector<uint32_t> rows;
    std::vector<uint8_t> state;
    size_t mask = 0;      // capacity - 1 (capacity is a power of two)
    size_t used = 0;      // full slots
    size_t occupied = 0;  // full + tombstone slots

    void ReserveFor(size_t n);
    uint32_t Find(uint64_t key) const;  // kNoRow if absent
    bool Insert(uint64_t key, uint32_t row);  // false if present
    bool Erase(uint64_t key);
    bool SetRow(uint64_t key, uint32_t row);
    void Rehash(size_t new_capacity);
    void GrowIfNeeded();
  };

  SyncDataset(const EmdProtocolParams& params, EmdHashes hashes)
      : params_(params), hashes_(std::move(hashes)) {}

  /// Applies +1 updates for the insert_keys.size() rows the caller already
  /// appended to rows_'s tail (keys pre-validated): tail hashing, sketch and
  /// estimator updates, index and cache bookkeeping.
  void ApplyInserts(std::span<const uint64_t> insert_keys);
  /// Applies -1 updates for the rows at `slots` and swap-removes them
  /// (slots pre-validated, sorted descending).
  void ApplyDeletes(std::span<const size_t> slots_desc);

  EmdProtocolParams params_;
  EmdHashes hashes_;
  EmdSketchSet sketches_;
  PointStore rows_;
  /// row_keys_[slot] = content-hash key of rows_[slot].
  std::vector<uint64_t> row_keys_;
  /// Cached masked level keys, row-major: row_level_keys_[slot * levels + l]
  /// — deletes replay them instead of re-hashing the row.
  std::vector<uint64_t> row_level_keys_;
  RowIndex index_;
  uint64_t generation_ = 0;

  // Pooled mutation scratch (sized on first use; warm repeats allocate
  // nothing).
  EvalMatrix eval_scratch_;
  std::vector<uint64_t> batch_keys_;     // level-major, levels x batch
  std::vector<uint64_t> key_scratch_;    // batch key validation
  std::vector<size_t> slot_scratch_;     // delete slots, sorted descending
};

}  // namespace rsr

#endif  // RSR_CORE_SYNC_DATASET_H_
