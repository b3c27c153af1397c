#include "util/hash.h"

namespace flowercdn {

uint64_t Hash64(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Final mix to improve low-bit avalanche for short keys.
  return Mix64(h);
}

}  // namespace flowercdn
