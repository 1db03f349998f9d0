// Distance-sensitive Bloom filter (Kirsch & Mitzenmacher [18]).
//
// The predecessor idea the paper builds on (Section 1.1): replace a Bloom
// filter's ordinary hashes with LSH functions so membership queries answer
// "is the query CLOSE to some set element?". The filter holds L independent
// banks; bank i stores, for each inserted point, the bit addressed by a
// concatenation of g LSH evaluations. A query counts banks whose addressed
// bit is set and compares against a threshold:
//   close points (<= r1) collide per bank w.p. >= p1^g,
//   far points   (>= r2) collide per bank w.p. <= p2^g + fp,
// where fp is the hash-table false-positive rate, so thresholding the vote
// count at the midpoint separates the two whp for L = Theta(log(1/delta)).
//
// Used here as a cheap pre-filter (e.g. "does Bob plausibly have something
// near x?") and exercised as an extension experiment in bench_ablations.
#ifndef RSR_SKETCH_DS_BLOOM_H_
#define RSR_SKETCH_DS_BLOOM_H_

#include <memory>
#include <vector>

#include "geometry/point_store.h"
#include "lsh/lsh_family.h"
#include "util/random.h"
#include "util/status.h"

namespace rsr {

struct DsBloomParams {
  /// Number of banks L (votes).
  size_t num_banks = 32;
  /// LSH concatenations per bank g (amplification).
  size_t hashes_per_bank = 1;
  /// Bits per bank.
  size_t bits_per_bank = 4096;
  /// Vote threshold in [0,1]: a query is "near" if at least this fraction of
  /// banks hit. 0 derives the midpoint between the per-bank close-hit rate
  /// p1^g and the union-bounded far-hit rate min(1, n * p2^g), where n is
  /// expected_set_size.
  double threshold = 0.0;
  /// Expected number of inserted points (for the far-hit union bound).
  size_t expected_set_size = 1;
  uint64_t seed = 0;
};

class DistanceSensitiveBloomFilter {
 public:
  /// Smallest g with n * p2^g <= p1^g / 2, i.e. enough amplification that a
  /// far query's union-bounded hit rate sits well below the close rate.
  static size_t RecommendedHashesPerBank(const LshParams& lsh, size_t n);

  /// The filter borrows the family (must outlive the filter) and draws
  /// num_banks * hashes_per_bank functions from the seed.
  DistanceSensitiveBloomFilter(const LshFamily& family, LshParams lsh,
                               const DsBloomParams& params);

  void Insert(const Point& p);

  /// Store-native batch insert: one EvaluateAllInto pass over all drawn
  /// functions (one batch call per draw instead of a virtual call per
  /// point), then each bank folds its draws per point in Insert's order.
  /// Final bank contents are bit-identical to repeated Insert (bit OR
  /// commutes).
  void InsertMany(const PointStore& points);

  /// Fraction of banks whose addressed bit is set for p.
  double VoteFraction(const Point& p) const;

  /// VoteFraction(p) >= threshold.
  bool QueryNear(const Point& p) const;

  double threshold() const { return threshold_; }
  size_t size_bits() const {
    return params_.num_banks * params_.bits_per_bank;
  }

 private:
  size_t BitIndex(size_t bank, const Point& p) const;

  DsBloomParams params_;
  double threshold_;
  std::vector<std::unique_ptr<LshFunction>> functions_;
  std::vector<uint64_t> mix_salts_;
  std::vector<std::vector<uint8_t>> banks_;
};

}  // namespace rsr

#endif  // RSR_SKETCH_DS_BLOOM_H_
