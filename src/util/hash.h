#ifndef FLOWERCDN_UTIL_HASH_H_
#define FLOWERCDN_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace flowercdn {

/// 64-bit FNV-1a over a byte string. Deterministic across platforms and
/// runs; used wherever the simulation needs a stable name -> number mapping
/// (Chord keys, RNG stream forking, Bloom filter probes).
uint64_t Hash64(std::string_view bytes);

/// Hashes a 64-bit value (SplitMix64 finalizer — a strong avalanche mix).
/// Inline: the link-latency model mixes on every simulated message.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines two 64-bit hashes into one (order-sensitive).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_HASH_H_
