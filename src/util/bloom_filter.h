#ifndef FLOWERCDN_UTIL_BLOOM_FILTER_H_
#define FLOWERCDN_UTIL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace flowercdn {

/// Space-efficient set sketch with one-sided error: MayContain() never
/// returns false for an inserted key (no false negatives) but may return
/// true for absent keys with a tunable false-positive rate.
///
/// In Flower-CDN, content peers gossip Bloom filters of their stored object
/// ids ("content summaries", §3.1) so that petal-local searches can pick a
/// likely provider without shipping full object lists.
class BloomFilter {
 public:
  /// An empty filter with no capacity; Insert on it is a no-op that keeps
  /// MayContain() == false. Useful as a "knows nothing" placeholder.
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` insertions at roughly
  /// `false_positive_rate` (both clamped to sane minimums).
  BloomFilter(size_t expected_keys, double false_positive_rate);

  BloomFilter(const BloomFilter&) = default;
  BloomFilter& operator=(const BloomFilter&) = default;
  BloomFilter(BloomFilter&&) = default;
  BloomFilter& operator=(BloomFilter&&) = default;

  /// Adds a 64-bit key.
  void Insert(uint64_t key);

  /// True if `key` may have been inserted; false means definitely absent.
  bool MayContain(uint64_t key) const;

  /// Merges another filter of identical geometry (bitwise OR).
  /// Returns InvalidArgument if geometries differ.
  Status UnionWith(const BloomFilter& other);

  /// Number of Insert() calls observed (an upper bound on distinct keys).
  size_t inserted_count() const { return inserted_count_; }

  /// Size of the underlying bit array (0 for the empty filter).
  size_t bit_count() const { return bit_count_; }

  size_t num_hashes() const { return num_hashes_; }

  /// Fraction of set bits — a saturation indicator.
  double FillRatio() const;

  /// The raw bit-array words, for wire encoding. (bit_count + 63) / 64
  /// entries; empty for the default filter.
  const std::vector<uint64_t>& words() const { return bits_; }

  /// Reconstructs a filter from decoded wire fields. Errors when the word
  /// count does not match `bit_count` or the hash count is implausible —
  /// the validation an adversarial decoder needs.
  static Result<BloomFilter> FromWire(size_t bit_count, size_t num_hashes,
                                      size_t inserted_count,
                                      std::vector<uint64_t> words);

  /// Clears all bits, keeping geometry.
  void Clear();

 private:
  // Double hashing: probe i uses h1 + i*h2 (Kirsch & Mitzenmacher).
  void Probes(uint64_t key, uint64_t* h1, uint64_t* h2) const;

  size_t bit_count_ = 0;
  size_t num_hashes_ = 0;
  size_t inserted_count_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_BLOOM_FILTER_H_
