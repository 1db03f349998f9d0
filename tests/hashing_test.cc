// Unit tests for hashing/: mixers, pairwise and k-independent families,
// checksums, and both arms of the four-row prefix-key kernel.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_sketch.h"
#include "hashing/checksum.h"
#include "hashing/hash64.h"
#include "hashing/kindependent.h"
#include "hashing/pairwise.h"
#include "hashing/pairwise_avx2.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace rsr {
namespace {

// ------------------------------------------------------------------ Mix --

TEST(Hash64Test, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Hash64Test, Mix64Avalanche) {
  // Flipping one input bit should flip ~32 output bits on average.
  Rng rng(1);
  double total_flips = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t x = rng.Next();
    int bit = static_cast<int>(rng.Below(64));
    uint64_t diff = Mix64(x) ^ Mix64(x ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(diff);
  }
  EXPECT_NEAR(total_flips / kTrials, 32.0, 2.0);
}

TEST(Hash64Test, HashBytesSeedSensitivity) {
  const char data[] = "robust set reconciliation";
  EXPECT_NE(HashBytes(data, sizeof(data), 1), HashBytes(data, sizeof(data), 2));
}

TEST(Hash64Test, HashBytesLengthSensitivity) {
  const char data[] = "aaaaaaaaaaaaaaaa";
  EXPECT_NE(HashBytes(data, 8, 7), HashBytes(data, 9, 7));
}

TEST(Hash64Test, HashU64SpanMatchesContent) {
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_EQ(HashU64Span(a.data(), a.size(), 5),
            HashU64Span(a.data(), a.size(), 5));
  EXPECT_NE(HashU64Span(a.data(), a.size(), 5),
            HashU64Span(b.data(), b.size(), 5));
}

// ------------------------------------------------------------- Mersenne --

TEST(PairwiseTest, Mod61Identities) {
  EXPECT_EQ(Mod61(0), 0u);
  EXPECT_EQ(Mod61(kMersenne61), 0u);
  EXPECT_EQ(Mod61(kMersenne61 + 5), 5u);
  unsigned __int128 big =
      static_cast<unsigned __int128>(kMersenne61) * kMersenne61;
  EXPECT_EQ(Mod61(big), 0u);
  EXPECT_EQ(Mod61(big + 17), 17u);
}

TEST(PairwiseTest, Mod61ExactBelow2To125) {
  // Mod61's contract (pairwise.h): exact for every x < 2^125, the bound the
  // level-key lanes are sized against.
  const unsigned __int128 p = kMersenne61;
  const unsigned __int128 top = (static_cast<unsigned __int128>(1) << 125) - 1;
  for (unsigned __int128 k = 0; k < 64; ++k) {
    EXPECT_EQ(Mod61(top - k), static_cast<uint64_t>((top - k) % p));
  }
  Rng rng(21);
  for (int i = 0; i < 200000; ++i) {
    // Random widths, so small and near-bound inputs both occur.
    const unsigned __int128 x =
        ((static_cast<unsigned __int128>(rng.Next()) << 64) | rng.Next()) >>
        (3 + rng.Below(125));
    ASSERT_EQ(Mod61(x), static_cast<uint64_t>(x % p));
  }
}

TEST(PairwiseTest, Mod61ExactAtFoldEdges) {
  // Mod61 folds x = hi * 2^61 + lo to r = lo + (hi & p) + (hi >> 61), which
  // reaches 2p + 7, folds r again to at most p + 1 and maps p and p + 1 to
  // their residues without a branch (pairwise.h). These inputs put the
  // first fold in [2p - 6, 2p + 7], and with it the second on each of p and
  // p + 1 (p + 2 and above cannot occur).
  const uint64_t p = kMersenne61;
  const unsigned __int128 p128 = p;
  int first_fold_top = 0, second_fold_at_p = 0, second_fold_at_p1 = 0;
  for (uint64_t lo = p - 3; lo <= p; ++lo) {
    for (uint64_t hi_low = p - 3; hi_low <= p; ++hi_low) {
      for (uint64_t k = 0; k < 8; ++k) {
        const uint64_t hi = (k << 61) | hi_low;
        const unsigned __int128 x =
            (static_cast<unsigned __int128>(hi) << 61) | lo;
        const uint64_t first = lo + (hi & p) + (hi >> 61);
        const uint64_t second = (first & p) + (first >> 61);
        if (first >= 2 * p && first <= 2 * p + 7) ++first_fold_top;
        if (second == p) ++second_fold_at_p;
        if (second == p + 1) ++second_fold_at_p1;
        ASSERT_LE(second, p + 1);
        ASSERT_EQ(Mod61(x), static_cast<uint64_t>(x % p128))
            << "lo " << lo << " hi " << hi;
      }
    }
  }
  EXPECT_GE(first_fold_top, 8);  // at least lo = hi & p = p, each k
  EXPECT_GT(second_fold_at_p, 0);
  EXPECT_GT(second_fold_at_p1, 0);
  // Single-word inputs at the boundary.
  for (uint64_t x : {p - 1, p, p + 1, p + 2, 2 * p - 1, 2 * p, 2 * p + 1,
                     ~uint64_t{0} - 1, ~uint64_t{0}}) {
    EXPECT_EQ(Mod61(x), x % p) << x;
  }
}

TEST(PairwiseTest, OutputBelowPrime) {
  // The vector family reduces mod p = 2^61 - 1: every key is a canonical
  // residue, including for entries >= p.
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint64_t> v(1 + rng.Below(8));
    for (uint64_t& x : v) x = rng.Below(3) == 0 ? ~uint64_t{0} : rng.Next();
    EXPECT_LT(h.Eval(v), kMersenne61);
    EXPECT_LT(h.Eval(v, rng.Below(v.size() + 1)), kMersenne61);
  }
}

TEST(PairwiseTest, PairwiseCollisionRateNearUniform) {
  // For a pairwise-independent family, two fixed distinct vectors agree on
  // b low key bits with probability ~2^-b over the draw.
  Rng rng(6);
  const int kBits = 12;
  const uint64_t kMask = (uint64_t{1} << kBits) - 1;
  const int kPairs = 40000;
  int collisions = 0;
  for (int t = 0; t < kPairs; ++t) {
    PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
    const std::vector<uint64_t> u = {static_cast<uint64_t>(t), 7,
                                     static_cast<uint64_t>(2 * t)};
    const std::vector<uint64_t> v = {static_cast<uint64_t>(t), 8,
                                     static_cast<uint64_t>(2 * t)};
    collisions += ((h.Eval(u) & kMask) == (h.Eval(v) & kMask));
  }
  double expected = kPairs / 4096.0;
  EXPECT_NEAR(collisions, expected, 4 * std::sqrt(expected) + 3);
}

TEST(PairwiseVectorTest, DeterministicAndPrefixSensitive) {
  Rng rng(7);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {10, 20, 30, 40};
  EXPECT_EQ(h.Eval(v, 4), h.Eval(v, 4));
  EXPECT_NE(h.Eval(v, 2), h.Eval(v, 3));  // whp
}

TEST(PairwiseVectorTest, ContentSensitive) {
  Rng rng(8);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_NE(h.Eval(a), h.Eval(b));
}

TEST(PairwiseVectorTest, PrefixEvalMatchesTruncatedVector) {
  Rng rng(9);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {5, 6, 7, 8, 9};
  std::vector<uint64_t> prefix = {5, 6, 7};
  EXPECT_EQ(h.Eval(v, 3), h.Eval(prefix, 3));
}

TEST(PairwiseVectorTest, IndependentDrawsDisagree) {
  Rng rng(10);
  PairwiseVectorHash h1 = PairwiseVectorHash::Draw(&rng);
  PairwiseVectorHash h2 = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {42, 43};
  EXPECT_NE(h1.Eval(v), h2.Eval(v));  // whp
}

// --------------------------------------------------------- KIndependent --

TEST(KIndependentTest, DeterministicPolynomial) {
  Rng rng(11);
  KIndependentHash h = KIndependentHash::Draw(4, &rng);
  EXPECT_EQ(h.Eval(123), h.Eval(123));
  EXPECT_LT(h.Eval(123), kMersenne61);
}

TEST(KIndependentTest, DegreeOneIsConstant) {
  Rng rng(12);
  KIndependentHash h = KIndependentHash::Draw(1, &rng);
  EXPECT_EQ(h.Eval(1), h.Eval(2));
}

TEST(KIndependentTest, UniformBucketDistribution) {
  Rng rng(13);
  KIndependentHash h = KIndependentHash::Draw(3, &rng);
  const int kBuckets = 16;
  std::vector<int> counts(kBuckets, 0);
  const int kSamples = 32000;
  for (int i = 0; i < kSamples; ++i) {
    counts[h.Eval(static_cast<uint64_t>(i)) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 5 * std::sqrt(kSamples / kBuckets));
  }
}

TEST(KIndependentTest, PairCollisionRate) {
  Rng rng(14);
  const int kTrials = 30000;
  int collisions = 0;
  for (int t = 0; t < kTrials; ++t) {
    KIndependentHash h = KIndependentHash::Draw(3, &rng);
    collisions += (h.Eval(static_cast<uint64_t>(t)) % 1024 ==
                   h.Eval(static_cast<uint64_t>(t + kTrials)) % 1024);
  }
  double expected = kTrials / 1024.0;
  EXPECT_NEAR(collisions, expected, 5 * std::sqrt(expected) + 3);
}

// ------------------------------------------------------------- Checksum --

TEST(ChecksumTest, DistinctKeysDistinctChecksums) {
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 10000; ++k) {
    seen.insert(KeyChecksum(k, 77));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(ChecksumTest, SaltChangesChecksum) {
  EXPECT_NE(KeyChecksum(5, 1), KeyChecksum(5, 2));
}

// ---------------------------------------------- textbook vector hash --

/// The vector hash's public definition evaluated term by term with
/// unsigned __int128 `%`, independent of the library's lane and fold
/// schedule. Parameters are read back through plain Eval on unit vectors:
/// b = Eval(0, 0), salt = Eval(0, 1) - b, a_i = Eval(e_i, L) - Eval(0, L).
class TextbookVectorHash {
 public:
  TextbookVectorHash(const PairwiseVectorHash& h, size_t max_len) {
    std::vector<uint64_t> unit(max_len, 0);
    b_ = h.Eval(unit, 0);
    salt_ = Sub(h.Eval(unit, 1), b_);
    const uint64_t zero_at_max = h.Eval(unit, max_len);
    for (size_t i = 0; i < max_len; ++i) {
      unit[i] = 1;
      coeffs_.push_back(Sub(h.Eval(unit, max_len), zero_at_max));
      unit[i] = 0;
    }
  }

  uint64_t Key(const uint64_t* v, size_t len) const {
    const unsigned __int128 p = kMersenne61;
    unsigned __int128 sum = b_;
    for (size_t i = 0; i < len; ++i) {
      const unsigned __int128 term = coeffs_[i] * (v[i] % p) % p;
      sum = (sum + term) % p;
    }
    const unsigned __int128 length_term = salt_ * (len % p) % p;
    sum = (sum + length_term) % p;
    return static_cast<uint64_t>(sum);
  }

 private:
  static uint64_t Sub(uint64_t a, uint64_t b) {
    return a >= b ? a - b : a + kMersenne61 - b;
  }

  uint64_t b_ = 0;
  uint64_t salt_ = 0;
  std::vector<uint64_t> coeffs_;
};

/// Rows whose entries come from {0, p-1, p, 2^64-1, random}: all-extreme
/// rows push every lane to its largest terms, mixed rows cover the rest.
std::vector<std::vector<uint64_t>> ExtremeRows(size_t len, Rng* rng) {
  const uint64_t specials[] = {0, kMersenne61 - 1, kMersenne61, ~uint64_t{0}};
  std::vector<std::vector<uint64_t>> rows;
  for (uint64_t special : specials) rows.emplace_back(len, special);
  for (int r = 0; r < 4; ++r) {
    std::vector<uint64_t> row(len);
    for (uint64_t& v : row) {
      const uint64_t pick = rng->Below(5);
      v = pick < 4 ? specials[pick] : rng->Next();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(PairwiseVectorTest, EvalMatchesTextbookDefinition) {
  constexpr size_t kMaxLen = 3073;  // s of the emd_wide_prior workload
  Rng rng(23);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  TextbookVectorHash ref(h, kMaxLen);
  std::vector<size_t> lens = {0};
  for (size_t len = 1; len <= 40; ++len) lens.push_back(len);
  lens.push_back(kMaxLen);
  for (const auto& row : ExtremeRows(kMaxLen, &rng)) {
    for (size_t len : lens) {
      ASSERT_EQ(h.Eval(row, len), ref.Key(row.data(), len)) << "len " << len;
    }
  }
}

TEST(PairwiseVectorTest, EvalPrefixesMatchesTextbookDefinition) {
  constexpr size_t kMaxLen = 3073;
  Rng rng(24);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  TextbookVectorHash ref(h, kMaxLen);
  // Every length 0..40 (0 and several others duplicated), then a geometric
  // ladder up to s with a duplicated top, as Algorithm 1's levels produce.
  std::vector<size_t> lens = {0, 0};
  for (size_t len = 1; len <= 40; ++len) {
    lens.push_back(len);
    if (len % 7 == 0) lens.push_back(len);
  }
  lens.insert(lens.end(), {48, 96, 192, 384, 768, 1537, 3073, 3073});
  std::vector<uint64_t> keys(lens.size());
  for (const auto& row : ExtremeRows(kMaxLen, &rng)) {
    h.EvalPrefixes(row.data(), lens.data(), lens.size(), keys.data());
    for (size_t t = 0; t < lens.size(); ++t) {
      ASSERT_EQ(keys[t], ref.Key(row.data(), lens[t])) << "len " << lens[t];
    }
  }
}

TEST(PairwiseVectorTest, EvalBatchMatchesTextbookDefinition) {
  constexpr size_t kMaxLen = 3073;
  Rng rng(25);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  TextbookVectorHash ref(h, kMaxLen);
  const std::vector<std::vector<uint64_t>> rows = ExtremeRows(kMaxLen, &rng);
  std::vector<uint64_t> matrix;
  for (const auto& row : rows) {
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  std::vector<uint64_t> out(rows.size());
  std::vector<size_t> lens = {0};
  for (size_t len = 1; len <= 40; ++len) lens.push_back(len);
  lens.push_back(kMaxLen);
  for (size_t len : lens) {
    h.EvalBatch(matrix.data(), rows.size(), kMaxLen, len, out.data());
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(out[r], ref.Key(rows[r].data(), len))
          << "row " << r << " len " << len;
    }
  }
}

// ------------------------------------------- four-row prefix kernel --

using hashing_internal::KeyArm;

/// The arms a test can run here: the AVX2 arm whenever the CPU can execute
/// it (built without AVX2 codegen it hashes no row and the scalar walk runs
/// them all, so it is runnable too). Called directly, not through the
/// dispatcher, so the vector code runs under RSR_FORCE_SCALAR=1 as well.
std::vector<KeyArm> RunnableKeyArms() {
  std::vector<KeyArm> arms = {KeyArm::kScalar};
  if (!hashing_internal::kAvx2PairwiseCompiled || CpuSupportsAvx2()) {
    arms.push_back(KeyArm::kAvx2);
  }
  return arms;
}

/// ExtremeRows plus rows of p + 1, 2^63 and small negative int64 bucket ids
/// (2-stable cells below zero), alone and mixed.
std::vector<std::vector<uint64_t>> KernelRows(size_t len, Rng* rng) {
  std::vector<std::vector<uint64_t>> rows = ExtremeRows(len, rng);
  const uint64_t specials[] = {kMersenne61 + 1, uint64_t{1} << 63,
                               ~uint64_t{0} - 6, static_cast<uint64_t>(-2),
                               static_cast<uint64_t>(-1000)};
  for (uint64_t special : specials) rows.emplace_back(len, special);
  std::vector<uint64_t> mixed(len);
  for (uint64_t& v : mixed) v = specials[rng->Below(5)];
  rows.push_back(std::move(mixed));
  return rows;
}

/// Prefix lists with 0, duplicates, more than 64 prefixes, and runs of
/// 31, 32, 33, 63, 64, 65 and 3073 entries between boundaries, which
/// straddle the vector arm's 32-entry fold schedule.
std::vector<std::vector<size_t>> KernelPrefixLists() {
  std::vector<std::vector<size_t>> lists;
  std::vector<size_t> runs = {0, 0, 1, 2, 3, 3, 4, 5, 8};
  for (size_t run : std::vector<size_t>{31, 32, 33, 63, 64, 65, 3073}) {
    runs.push_back(runs.back() + run);
  }
  runs.push_back(runs.back());
  lists.push_back(std::move(runs));
  std::vector<size_t> many;  // 0..70 and a duplicated 100: t = 73 > 64
  for (size_t len = 0; len <= 70; ++len) many.push_back(len);
  many.insert(many.end(), {100, 100});
  lists.push_back(std::move(many));
  lists.push_back({0});
  lists.push_back({3073});
  return lists;
}

TEST(PairwiseVectorTest, EvalPrefixesRowsMatchesTextbookOnBothArms) {
  Rng rng(26);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  const std::vector<std::vector<size_t>> prefix_lists = KernelPrefixLists();
  size_t max_len = 0;
  for (const auto& lens : prefix_lists) max_len = std::max(max_len, lens.back());
  TextbookVectorHash ref(h, max_len);
  const std::vector<std::vector<uint64_t>> pool = KernelRows(max_len, &rng);
  // Row r of a batch is pool row r % |pool|, laid out with a stride larger
  // than every prefix.
  const size_t stride = max_len + 5;
  std::vector<uint64_t> matrix(17 * stride, 0);
  for (size_t r = 0; r < 17; ++r) {
    std::copy(pool[r % pool.size()].begin(), pool[r % pool.size()].end(),
              matrix.begin() + static_cast<std::ptrdiff_t>(r * stride));
  }
  constexpr uint64_t kSentinel = 0x5eed5eed5eed5eedULL;
  for (const auto& lens : prefix_lists) {
    // want[l][r]: the textbook key of pool row r at lens[l].
    std::vector<std::vector<uint64_t>> want(lens.size());
    for (size_t l = 0; l < lens.size(); ++l) {
      for (size_t r = 0; r < 17; ++r) {
        want[l].push_back(ref.Key(matrix.data() + r * stride, lens[l]));
      }
    }
    for (uint64_t mask : {~uint64_t{0}, kEmdLevelKeyMask}) {
      for (size_t count : std::vector<size_t>{0, 1, 3, 4, 5, 7, 8, 9, 17}) {
        for (KeyArm arm : RunnableKeyArms()) {
          // out_n = count + 2: the two columns past each level stay put.
          const size_t out_n = count + 2;
          std::vector<uint64_t> out(lens.size() * out_n, kSentinel);
          h.EvalPrefixesRowsOn(arm, matrix.data(), count, stride, lens.data(),
                               lens.size(), mask, out_n, out.data());
          for (size_t l = 0; l < lens.size(); ++l) {
            for (size_t r = 0; r < out_n; ++r) {
              const uint64_t expect =
                  r < count ? want[l][r] & mask : kSentinel;
              ASSERT_EQ(out[l * out_n + r], expect)
                  << hashing_internal::KeyArmName(arm) << " count " << count
                  << " row " << r << " len " << lens[l] << " mask " << mask;
            }
          }
        }
      }
    }
  }
}

TEST(PairwiseVectorTest, PrefixRowsAvx2ExactAtMaximalTerms) {
  if (hashing_internal::kAvx2PairwiseCompiled && !CpuSupportsAvx2()) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  // Every multiplier, b and salt at p - 1. Row 1's entries are p - 1, whose
  // limbs make p00 and mid their largest; every other row's are 2^64 - 1,
  // reduced to 2^61 + 6, whose high limb makes p11 (and so H's growth per
  // entry) its largest. The prefixes put runs on both sides of each fold.
  constexpr size_t kLen = 3073 + 65;
  const uint64_t p = kMersenne61;
  const std::vector<uint64_t> coeffs(kLen, p - 1);
  const std::vector<size_t> lens = {0, 31, 63, 96, 160, 224, 289, 3073, kLen};
  std::vector<uint64_t> rows(8 * kLen, ~uint64_t{0});
  for (size_t j = 0; j < kLen; ++j) rows[kLen + j] = p - 1;  // row 1
  std::vector<uint64_t> out(lens.size() * 8, 0);
  const size_t done = hashing_internal::PrefixRowsAvx2(
      coeffs.data(), p - 1, p - 1, rows.data(), 8, kLen, lens.data(),
      lens.size(), ~uint64_t{0}, 8, out.data());
  if (!hashing_internal::kAvx2PairwiseCompiled) {
    EXPECT_EQ(done, 0u);
    return;
  }
  ASSERT_EQ(done, 8u);
  for (size_t r = 0; r < 8; ++r) {
    const unsigned __int128 pp = p;
    unsigned __int128 sum = p - 1;
    size_t j = 0;
    for (size_t l = 0; l < lens.size(); ++l) {
      for (; j < lens[l]; ++j) {
        sum = (sum + (p - 1) * (rows[r * kLen + j] % pp) % pp) % pp;
      }
      const uint64_t want =
          static_cast<uint64_t>((sum + (p - 1) * (lens[l] % pp) % pp) % pp);
      ASSERT_EQ(out[l * 8 + r], want) << "row " << r << " len " << lens[l];
    }
  }
}

}  // namespace
}  // namespace rsr
