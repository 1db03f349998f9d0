#include "sketch/cell_table.h"

#include <vector>

#include "hashing/checksum.h"
#include "hashing/kindependent.h"
#include "util/logging.h"
#include "util/random.h"

namespace rsr {
namespace sketch_internal {

CellMap::CellMap(size_t num_cells, int num_hashes, uint64_t seed,
                 uint64_t salt)
    : q_(static_cast<size_t>(num_hashes)) {
  RSR_CHECK(num_hashes >= 2);
  RSR_CHECK(num_hashes <= kMaxHashes);
  RSR_CHECK(num_cells > 0);
  subtable_mod_ = FastDiv61((num_cells + q_ - 1) / q_);
  Rng rng(seed ^ salt);
  for (size_t j = 0; j < q_; ++j) {
    // The polynomial family keeps both parties' functions identical by
    // seed; the drawn coefficients are copied into the flat inline array.
    KIndependentHash h = KIndependentHash::Draw(kIndexIndependence, &rng);
    for (int i = 0; i < kIndexIndependence; ++i) {
      coeffs_[j * kIndexIndependence + static_cast<size_t>(i)] =
          h.coeffs()[i];
    }
  }
}

namespace {

/// The calling thread's sharded-build pool (cell and key indices as uint32:
/// protocol tables and batches are far below 2^32).
struct ShardScratch {
  std::vector<uint32_t> cells;          // n * q, key-major
  std::vector<uint64_t> checksums;      // n
  std::vector<uint32_t> bucket_counts;  // key_blocks x num_blocks
  std::vector<size_t> bucket_offsets;   // key_blocks x num_blocks cursors
  std::vector<size_t> block_starts;     // num_blocks + 1
  std::vector<uint64_t> entries;        // n * q, cell << 32 | key index
};

/// The calling thread's inclusion flags, shared by every compact writer and
/// reader (neither ever runs inside the other).
thread_local std::vector<uint8_t> flag_pool;

}  // namespace

// RSR_ZERO_ALLOC: a repeat call with the same batch shape reuses the
// thread's pool (SketchHotPathTest.*WarmShardedUpdateDoesNotAllocate).
ShardPlan PartitionUpdates(const CellMap& map, std::span<const uint64_t> keys,
                           uint64_t checksum_salt, uint64_t checksum_mask,
                           size_t cell_bytes, size_t num_shards,
                           size_t num_threads) {
  static thread_local ShardScratch scratch;
  const size_t n = keys.size();
  const size_t q = map.num_hashes();
  const size_t total = map.num_cells();

  // Phase 1: hash every key once — q cell indices plus the checksum term —
  // sharded over keys. Workers write through pointers taken here, on the
  // calling thread, never through the thread_local itself.
  scratch.cells.resize(n * q);
  scratch.checksums.resize(n);
  uint32_t* const cell_idx = scratch.cells.data();
  uint64_t* const checksums = scratch.checksums.data();
  const uint64_t* const key_data = keys.data();
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    size_t cells[kMaxHashes];
    for (size_t i = begin; i < end; ++i) {
      map.CellsOf(key_data[i], cells);
      for (size_t j = 0; j < q; ++j) {
        cell_idx[i * q + j] = static_cast<uint32_t>(cells[j]);
      }
      checksums[i] = ChecksumWithSalt(key_data[i], checksum_salt) &
                     checksum_mask;
    }
  });

  // Cell blocks: the largest power of two whose slab slice stays within
  // ~0.5 MiB, i.e. comfortably L2-resident while a bucket is applied.
  size_t block_shift = 0;
  while ((size_t{1} << (block_shift + 1)) * cell_bytes <= (size_t{1} << 19)) {
    ++block_shift;
  }
  const size_t num_blocks = ((total - 1) >> block_shift) + 1;
  num_shards = std::min({num_shards, total, num_blocks});

  // Phase 2: stable counting sort of the n*q pending updates into per-block
  // buckets as packed (cell << 32 | key index) words — 8 bytes per update,
  // so the partition itself is a light streaming pass. Key blocks give the
  // scatter deterministic parallelism: per-(key block, cell block) counts
  // turn into exact cursors, and each worker writes its own cursor ranges.
  // Bucket order is (key block, key) = global key order — the sort is
  // stable.
  const size_t key_blocks = num_shards < n ? num_shards : n;
  scratch.bucket_counts.assign(key_blocks * num_blocks, 0);
  scratch.bucket_offsets.resize(key_blocks * num_blocks);
  scratch.block_starts.resize(num_blocks + 1);
  scratch.entries.resize(n * q);
  uint32_t* const bucket_counts = scratch.bucket_counts.data();
  size_t* const bucket_offsets = scratch.bucket_offsets.data();
  size_t* const block_starts = scratch.block_starts.data();
  uint64_t* const entries = scratch.entries.data();

  ParallelShards(key_blocks, num_threads, [&](size_t kb_begin, size_t kb_end) {
    for (size_t kb = kb_begin; kb < kb_end; ++kb) {
      uint32_t* const cnt = bucket_counts + kb * num_blocks;
      const size_t i_end = ShardBoundary(n, key_blocks, kb + 1);
      for (size_t i = ShardBoundary(n, key_blocks, kb); i < i_end; ++i) {
        for (size_t j = 0; j < q; ++j) {
          ++cnt[cell_idx[i * q + j] >> block_shift];
        }
      }
    }
  });
  size_t run = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    block_starts[b] = run;
    for (size_t kb = 0; kb < key_blocks; ++kb) {
      bucket_offsets[kb * num_blocks + b] = run;
      run += bucket_counts[kb * num_blocks + b];
    }
  }
  block_starts[num_blocks] = run;
  ParallelShards(key_blocks, num_threads, [&](size_t kb_begin, size_t kb_end) {
    for (size_t kb = kb_begin; kb < kb_end; ++kb) {
      size_t* const cursor = bucket_offsets + kb * num_blocks;
      const size_t i_end = ShardBoundary(n, key_blocks, kb + 1);
      for (size_t i = ShardBoundary(n, key_blocks, kb); i < i_end; ++i) {
        for (size_t j = 0; j < q; ++j) {
          const uint32_t cell = cell_idx[i * q + j];
          const size_t pos = cursor[cell >> block_shift]++;
          entries[pos] = (static_cast<uint64_t>(cell) << 32) | i;
        }
      }
    }
  });
  return ShardPlan{checksums, entries, block_starts, num_blocks, num_shards};
}

// RSR_ZERO_ALLOC: warm serves reuse the thread's flags
// (SyncServerTest.WarmServeSerializeDoesNotAllocate).
uint8_t* CellFlags(size_t m) {
  flag_pool.assign(m, 0);
  return flag_pool.data();
}

void WriteCellBitmap(ByteWriter* w, const uint8_t* flags, size_t m) {
  for (size_t base = 0; base < m; base += 8) {
    uint8_t bits = 0;
    for (size_t i = 0; i < 8 && base + i < m; ++i) {
      if (flags[base + i]) bits |= static_cast<uint8_t>(1u << i);
    }
    w->PutU8(bits);
  }
}

const uint8_t* ReadCellBitmap(ByteReader* r, size_t m, bool sparse) {
  flag_pool.assign(m, 1);
  uint8_t* const included = flag_pool.data();
  if (!sparse) return included;
  for (size_t base = 0; base < m; base += 8) {
    const uint8_t bits = r->GetU8();
    for (size_t i = 0; i < 8; ++i) {
      if (base + i < m) {
        included[base + i] = (bits >> i) & 1;
      } else if ((bits >> i) & 1) {
        r->Invalidate();  // nonzero padding past the last cell
      }
    }
  }
  return included;
}

}  // namespace sketch_internal
}  // namespace rsr
