#include "core/sync_dataset.h"

#include <algorithm>
#include <cstddef>

#include "core/adaptive.h"
#include "hashing/hash64.h"

namespace rsr {

// ---- RowIndex ---------------------------------------------------------------

void SyncDataset::RowIndex::Rehash(size_t new_capacity) {
  RSR_DCHECK((new_capacity & (new_capacity - 1)) == 0);
  std::vector<uint64_t> old_keys = std::move(keys);
  std::vector<uint32_t> old_rows = std::move(rows);
  std::vector<uint8_t> old_state = std::move(state);
  keys.assign(new_capacity, 0);
  rows.assign(new_capacity, kNoRow);
  state.assign(new_capacity, kEmpty);
  mask = new_capacity - 1;
  used = 0;
  occupied = 0;
  for (size_t i = 0; i < old_state.size(); ++i) {
    if (old_state[i] != kFull) continue;
    // Direct probe-and-place (no growth check: the caller sized us).
    size_t pos = Mix64(old_keys[i]) & mask;
    while (state[pos] == kFull) pos = (pos + 1) & mask;
    keys[pos] = old_keys[i];
    rows[pos] = old_rows[i];
    state[pos] = kFull;
    ++used;
    ++occupied;
  }
}

void SyncDataset::RowIndex::GrowIfNeeded() {
  if (keys.empty()) {
    Rehash(16);
    return;
  }
  const size_t capacity = mask + 1;
  if ((occupied + 1) * 10 < capacity * 7) return;
  // Tombstone-heavy tables rebuild at the same size (clearing tombstones);
  // genuinely full ones double.
  const size_t new_capacity =
      ((used + 1) * 10 >= capacity * 7) ? capacity * 2 : capacity;
  Rehash(new_capacity);
}

void SyncDataset::RowIndex::ReserveFor(size_t n) {
  size_t target = 16;
  while (target * 7 <= (n + 1) * 10) target *= 2;
  if (target > keys.size()) Rehash(target);
}

uint32_t SyncDataset::RowIndex::Find(uint64_t key) const {
  if (keys.empty()) return kNoRow;
  size_t pos = Mix64(key) & mask;
  while (state[pos] != kEmpty) {
    if (state[pos] == kFull && keys[pos] == key) return rows[pos];
    pos = (pos + 1) & mask;
  }
  return kNoRow;
}

bool SyncDataset::RowIndex::Insert(uint64_t key, uint32_t row) {
  GrowIfNeeded();
  size_t pos = Mix64(key) & mask;
  size_t place = static_cast<size_t>(-1);
  while (state[pos] != kEmpty) {
    if (state[pos] == kFull && keys[pos] == key) return false;
    if (state[pos] == kTombstone && place == static_cast<size_t>(-1)) {
      place = pos;  // reuse the first tombstone on the probe path
    }
    pos = (pos + 1) & mask;
  }
  if (place == static_cast<size_t>(-1)) {
    place = pos;
    ++occupied;
  }
  keys[place] = key;
  rows[place] = row;
  state[place] = kFull;
  ++used;
  return true;
}

bool SyncDataset::RowIndex::Erase(uint64_t key) {
  if (keys.empty()) return false;
  size_t pos = Mix64(key) & mask;
  while (state[pos] != kEmpty) {
    if (state[pos] == kFull && keys[pos] == key) {
      state[pos] = kTombstone;
      --used;
      return true;
    }
    pos = (pos + 1) & mask;
  }
  return false;
}

bool SyncDataset::RowIndex::SetRow(uint64_t key, uint32_t row) {
  if (keys.empty()) return false;
  size_t pos = Mix64(key) & mask;
  while (state[pos] != kEmpty) {
    if (state[pos] == kFull && keys[pos] == key) {
      rows[pos] = row;
      return true;
    }
    pos = (pos + 1) & mask;
  }
  return false;
}

// ---- SyncDataset ------------------------------------------------------------

Result<SyncDataset> SyncDataset::Create(const PointStore& initial,
                                        const EmdProtocolParams& params) {
  if (params.adaptive.enabled &&
      params.adaptive.rounding != CellRounding::kDivisorLadder) {
    return Status::InvalidArgument(
        "maintained sketch sets serve adaptive exchanges by folding the "
        "cap-size tables down, which requires "
        "adaptive.rounding == CellRounding::kDivisorLadder (exact sizes are "
        "not divisors of the cap; use the one-shot protocol for those)");
  }
  if (params.d2 <= 0) {
    return Status::InvalidArgument(
        "maintained datasets require an explicit d2: d2 == 0 derives the "
        "level ladder from n, which churn changes out from under the tables");
  }
  if (initial.empty()) {
    return Status::InvalidArgument("initial set must be nonempty");
  }
  ValidatePointStore(initial, params.dim, params.delta);
  const size_t n = initial.size();

  EmdDerived derived;
  RSR_ASSIGN_OR_RETURN(derived, DeriveEmdParameters(params, n));

  SyncDataset ds(params, MakeEmdHashes(params, derived));
  ds.sketches_.derived = derived;
  ds.sketches_.prefix_lens = EmdPrefixLens(derived);
  ds.rows_ = initial;

  // Content-hash identities; duplicates make Delete(key) ambiguous.
  ds.row_keys_.resize(n);
  ds.rows_.ContentHashMany(params.seed, ds.row_keys_.data());
  ds.index_.ReserveFor(n);
  for (size_t i = 0; i < n; ++i) {
    if (!ds.index_.Insert(ds.row_keys_[i], static_cast<uint32_t>(i))) {
      return Status::InvalidArgument(
          "initial set contains duplicate rows under the content-hash "
          "identity");
    }
  }

  // The cold build: the same calls as BuildEmdSketches (sync_dataset_test
  // pins byte-equality against it), keeping the keys for the cache below.
  const size_t t = derived.levels;
  std::vector<uint64_t> keys = EvaluateEmdLevelKeys(
      ds.rows_, ds.hashes_, ds.sketches_.prefix_lens, params.num_threads);
  ds.sketches_.tables = BuildEmdLevelTables(
      keys, ds.rows_, std::vector<size_t>(t, derived.cells), params);
  ds.sketches_.estimators = BuildLevelEstimators(
      keys, t, n, params.adaptive, params.seed, params.num_threads);
  ds.sketches_.n = n;

  // Row-major cache of the level keys (deletes replay these).
  ds.row_level_keys_.resize(n * t);
  for (size_t l = 0; l < t; ++l) {
    for (size_t i = 0; i < n; ++i) {
      ds.row_level_keys_[i * t + l] = keys[l * n + i];
    }
  }
  return ds;
}

uint64_t SyncDataset::KeyOf(PointRef row) const {
  return row.ContentHash(params_.seed);
}

void SyncDataset::Reserve(size_t capacity) {
  const size_t t = sketches_.derived.levels;
  rows_.Reserve(capacity);
  row_keys_.reserve(capacity);
  row_level_keys_.reserve(capacity * t);
  index_.ReserveFor(capacity);
}

// RSR_ZERO_ALLOC: steady-shape churn reuses the member scratch buffers
// (SyncDatasetTest churn pin via tests/alloc_counter.h).
void SyncDataset::ApplyInserts(std::span<const uint64_t> insert_keys) {
  const size_t m = insert_keys.size();
  if (m == 0) return;
  const size_t t = sketches_.derived.levels;
  RSR_DCHECK(rows_.size() >= m);
  const size_t n0 = rows_.size() - m;  // rows already appended by the caller

  // One pass through the dispatched batch kernels over the appended tail;
  // the pipeline converts only the rows it evaluates, O(m · dim).
  EvaluateRowsInto(rows_, n0, m, hashes_.draws, params_.num_threads,
                   &eval_scratch_);
  batch_keys_.resize(t * m);
  ComputeEmdLevelKeysInto(eval_scratch_, hashes_.level_key_hash,
                          sketches_.prefix_lens, params_.num_threads,
                          batch_keys_.data());

  for (size_t l = 0; l < t; ++l) {
    Riblt& table = sketches_.tables[l];
    StrataEstimator& estimator = sketches_.estimators[l];
    const uint64_t* level_keys = batch_keys_.data() + l * m;
    for (size_t j = 0; j < m; ++j) {
      table.Update(level_keys[j], rows_.row(n0 + j), +1);
      estimator.Insert(level_keys[j]);
    }
  }

  row_level_keys_.resize((n0 + m) * t);
  for (size_t j = 0; j < m; ++j) {
    row_keys_.push_back(insert_keys[j]);
    const bool inserted = index_.Insert(insert_keys[j],
                                        static_cast<uint32_t>(n0 + j));
    RSR_CHECK(inserted);  // pre-validated by the caller
    for (size_t l = 0; l < t; ++l) {
      row_level_keys_[(n0 + j) * t + l] = batch_keys_[l * m + j];
    }
  }
  sketches_.n = rows_.size();
}

// RSR_ZERO_ALLOC: same steady-shape churn contract as ApplyInserts.
void SyncDataset::ApplyDeletes(std::span<const size_t> slots_desc) {
  const size_t t = sketches_.derived.levels;

  // Phase 1: signed cell updates from the cached level keys (no re-hash).
  for (size_t slot : slots_desc) {
    const Coord* row = rows_.row(slot);
    const uint64_t* level_keys = row_level_keys_.data() + slot * t;
    for (size_t l = 0; l < t; ++l) {
      sketches_.tables[l].Update(level_keys[l], row, -1);
      sketches_.estimators[l].Delete(level_keys[l]);
    }
  }

  // Phase 2: swap-remove the slots, largest first. Descending order
  // guarantees the row moved in from the back is never itself a pending
  // deletion: every remaining slot is strictly smaller than the one being
  // processed, hence smaller than the current last row.
  for (size_t slot : slots_desc) {
    const size_t last = rows_.size() - 1;
    const bool erased = index_.Erase(row_keys_[slot]);
    RSR_CHECK(erased);
    rows_.RemoveRowSwap(slot);
    if (slot != last) {
      row_keys_[slot] = row_keys_[last];
      std::copy(
          row_level_keys_.begin() + static_cast<std::ptrdiff_t>(last * t),
          row_level_keys_.begin() +
              static_cast<std::ptrdiff_t>((last + 1) * t),
          row_level_keys_.begin() + static_cast<std::ptrdiff_t>(slot * t));
      const bool moved = index_.SetRow(row_keys_[slot],
                                       static_cast<uint32_t>(slot));
      RSR_CHECK(moved);
    }
    row_keys_.pop_back();
    row_level_keys_.resize(last * t);
  }
  sketches_.n = rows_.size();
}

Result<uint64_t> SyncDataset::Insert(PointRef row) {
  RSR_CHECK_EQ(row.dim(), params_.dim);
  RSR_CHECK(row.InDomain(params_.delta));
  const uint64_t key = KeyOf(row);
  if (index_.Find(key) != RowIndex::kNoRow) {
    return Status::InvalidArgument("row already present (duplicate key)");
  }
  rows_.Append(row.data());  // `row` must not alias our own arena
  ApplyInserts(std::span<const uint64_t>(&key, 1));
  ++generation_;
  return key;
}

Status SyncDataset::Delete(uint64_t key) {
  const uint32_t slot = index_.Find(key);
  if (slot == RowIndex::kNoRow) {
    return Status::InvalidArgument("no row with this key");
  }
  const size_t s = slot;
  ApplyDeletes(std::span<const size_t>(&s, 1));
  ++generation_;
  return Status::OK();
}

Status SyncDataset::ApplyBatch(const PointStore& inserts,
                               std::span<const uint64_t> delete_keys) {
  const size_t m = inserts.size();
  if (m > 0) {
    RSR_CHECK_EQ(inserts.dim(), params_.dim);
    RSR_CHECK(inserts.InDomainAll(params_.delta));
  }

  // ---- Validate everything before mutating anything (atomicity). ----
  key_scratch_.resize(m);
  if (m > 0) inserts.ContentHashMany(params_.seed, key_scratch_.data());
  batch_keys_.resize(m);  // borrowed as sort scratch before the level keys
  std::copy(key_scratch_.begin(), key_scratch_.end(), batch_keys_.begin());
  std::sort(batch_keys_.begin(), batch_keys_.end());
  if (std::adjacent_find(batch_keys_.begin(), batch_keys_.end()) !=
      batch_keys_.end()) {
    return Status::InvalidArgument("duplicate rows within the insert batch");
  }
  for (size_t j = 0; j < m; ++j) {
    if (index_.Find(key_scratch_[j]) != RowIndex::kNoRow) {
      return Status::InvalidArgument("insert batch row already present");
    }
  }
  slot_scratch_.resize(delete_keys.size());
  for (size_t j = 0; j < delete_keys.size(); ++j) {
    const uint64_t key = delete_keys[j];
    if (index_.Find(key) == RowIndex::kNoRow &&
        !std::binary_search(batch_keys_.begin(), batch_keys_.end(), key)) {
      return Status::InvalidArgument("delete key not present");
    }
    // Duplicate delete keys: any two equal keys sort adjacent below.
    slot_scratch_[j] = static_cast<size_t>(key);  // borrowed for the check
  }
  std::sort(slot_scratch_.begin(), slot_scratch_.end());
  if (std::adjacent_find(slot_scratch_.begin(), slot_scratch_.end()) !=
      slot_scratch_.end()) {
    return Status::InvalidArgument("duplicate keys within the delete batch");
  }

  // ---- Apply: inserts first (so deletes may target them), then deletes.
  if (m > 0) rows_.AppendStore(inserts);
  ApplyInserts(key_scratch_);
  slot_scratch_.resize(delete_keys.size());
  for (size_t j = 0; j < delete_keys.size(); ++j) {
    const uint32_t slot = index_.Find(delete_keys[j]);
    RSR_CHECK(slot != RowIndex::kNoRow);  // validated above
    slot_scratch_[j] = slot;
  }
  std::sort(slot_scratch_.begin(), slot_scratch_.end(),
            std::greater<size_t>());
  ApplyDeletes(slot_scratch_);
  ++generation_;
  return Status::OK();
}

}  // namespace rsr
