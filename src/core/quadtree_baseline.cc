#include "core/quadtree_baseline.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "hashing/hash64.h"
#include "sketch/iblt.h"

namespace rsr {

namespace {

/// Packed little-endian cell-id vector (the IBLT value payload).
std::vector<uint8_t> PackCells(const std::vector<uint64_t>& cells) {
  std::vector<uint8_t> out(cells.size() * 8);
  for (size_t j = 0; j < cells.size(); ++j) {
    for (size_t b = 0; b < 8; ++b) {
      out[j * 8 + b] = static_cast<uint8_t>(cells[j] >> (8 * b));
    }
  }
  return out;
}

std::vector<uint64_t> UnpackCells(const std::vector<uint8_t>& bytes,
                                  size_t dim) {
  std::vector<uint64_t> cells(dim, 0);
  for (size_t j = 0; j < dim; ++j) {
    for (size_t b = 0; b < 8; ++b) {
      cells[j] |= static_cast<uint64_t>(bytes[j * 8 + b]) << (8 * b);
    }
  }
  return cells;
}

}  // namespace

Result<QuadtreeEmdReport> RunQuadtreeEmdProtocol(
    const PointStore& alice, const PointStore& bob,
    const QuadtreeEmdParams& params) {
  if (alice.size() != bob.size() || alice.empty()) {
    return Status::InvalidArgument("|S_A| must equal |S_B| and be positive");
  }
  if (params.dim == 0 || params.delta < 1) {
    return Status::InvalidArgument("dim and delta must be positive");
  }
  ValidatePointStore(alice, params.dim, params.delta);
  ValidatePointStore(bob, params.dim, params.delta);
  const size_t n = alice.size();
  const size_t max_diff =
      params.max_diff_entries > 0 ? params.max_diff_entries : 4 * params.k;

  QuadtreeEmdReport report;
  // Levels 0..L with cell side 2^l; side 2^L covers the shifted domain.
  size_t levels = static_cast<size_t>(std::ceil(std::log2(
                      2.0 * static_cast<double>(params.delta + 1)))) +
                  1;
  report.levels = levels;

  // Shared random shift (public coins).
  Rng shared(params.seed);
  std::vector<Coord> shift(params.dim);
  for (auto& s : shift) s = shared.UniformInt(0, params.delta);

  auto cells_at_level = [&](const Coord* row, size_t level) {
    std::vector<uint64_t> cells(params.dim);
    for (size_t j = 0; j < params.dim; ++j) {
      cells[j] = static_cast<uint64_t>(row[j] + shift[j]) >> level;
    }
    return cells;
  };

  // Occurrence-salted key per (level, cell vector): the i-th of a party's
  // points in the same cell uses salt i, so shared copies cancel.
  auto build_keys = [&](const PointStore& points, size_t level,
                        std::vector<std::vector<uint64_t>>* cell_vectors) {
    std::unordered_map<uint64_t, uint32_t> occurrence;
    std::vector<uint64_t> keys(points.size());
    cell_vectors->resize(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      std::vector<uint64_t> cells = cells_at_level(points.row(i), level);
      uint64_t base = HashU64Span(cells.data(), cells.size(),
                                  Mix64(params.seed + level));
      uint32_t occ = occurrence[base]++;
      keys[i] = HashCombine(base, occ);
      (*cell_vectors)[i] = std::move(cells);
    }
    return keys;
  };

  IbltParams iblt_params;
  iblt_params.num_cells = static_cast<size_t>(
      std::ceil(params.cell_multiplier * static_cast<double>(params.k)));
  iblt_params.num_hashes = params.num_hashes;
  iblt_params.value_size = params.dim * 8;

  // ---- Alice: one IBLT of rounded points per level, single message. ----
  Transcript transcript;
  ByteWriter message;
  for (size_t level = 0; level < levels; ++level) {
    IbltParams level_params = iblt_params;
    level_params.seed = HashCombine(params.seed, 0x9ad'0000ULL + level);
    Iblt table(level_params);
    std::vector<std::vector<uint64_t>> cell_vectors;
    std::vector<uint64_t> keys = build_keys(alice, level, &cell_vectors);
    for (size_t i = 0; i < n; ++i) {
      table.InsertKv(keys[i], PackCells(cell_vectors[i]));
    }
    table.WriteTo(&message);
  }
  transcript.Send("A->B quadtree IBLTs", message);
  report.comm = transcript.stats();

  // ---- Bob: delete his rounded points; decode finest feasible level. ----
  ByteReader reader(message.buffer());
  for (size_t level = 0; level < levels; ++level) {
    IbltParams level_params = iblt_params;
    level_params.seed = HashCombine(params.seed, 0x9ad'0000ULL + level);
    RSR_ASSIGN_OR_RETURN(Iblt table, Iblt::ReadFrom(&reader, level_params));

    std::vector<std::vector<uint64_t>> cell_vectors;
    std::vector<uint64_t> keys = build_keys(bob, level, &cell_vectors);
    std::unordered_map<uint64_t, size_t> key_to_point;
    for (size_t i = 0; i < n; ++i) {
      table.DeleteKv(keys[i], PackCells(cell_vectors[i]));
      key_to_point[keys[i]] = i;
    }
    IbltDecodeResult decoded = table.Decode();
    if (!decoded.complete || decoded.entries.size() > max_diff) continue;

    report.decoded_level = level;
    // Repair: remove Bob's matched-away points, add Alice's cell centers.
    std::vector<size_t> to_remove;
    PointStore to_add(params.dim);
    Coord half = level == 0 ? 0 : (Coord{1} << (level - 1));
    for (const IbltEntry& entry : decoded.entries) {
      if (entry.count < 0) {
        auto it = key_to_point.find(entry.key);
        if (it == key_to_point.end()) {
          return Status::Corruption("decoded unknown Bob-side key");
        }
        to_remove.push_back(it->second);
      } else {
        std::vector<uint64_t> cells = UnpackCells(entry.value, params.dim);
        Coord* row = to_add.AppendRow();
        for (size_t j = 0; j < params.dim; ++j) {
          Coord center = static_cast<Coord>(cells[j] << level) + half -
                         shift[j];
          row[j] = std::clamp<Coord>(center, 0, params.delta);
        }
      }
    }
    // Keep |S'_B| = n: pair removals with additions.
    size_t moves = std::min(to_remove.size(), to_add.size());
    report.removed = moves;
    report.added = moves;
    std::vector<char> removed(n, 0);
    for (size_t i = 0; i < moves; ++i) removed[to_remove[i]] = 1;
    report.s_b_prime = PointStore(params.dim);
    report.s_b_prime.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!removed[i]) report.s_b_prime.Append(bob.row(i));
    }
    for (size_t i = 0; i < moves; ++i) report.s_b_prime.Append(to_add[i]);
    RSR_CHECK_EQ(report.s_b_prime.size(), n);
    return report;
  }

  report.failure = true;
  return report;
}

}  // namespace rsr
