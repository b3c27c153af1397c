#ifndef FLOWERCDN_SIMCORE_MESSAGE_POOL_H_
#define FLOWERCDN_SIMCORE_MESSAGE_POOL_H_

#include <cstddef>
#include <cstdint>

namespace flowercdn {

/// Thread-local size-class pool behind Message::operator new/delete (and
/// a routed Chord lookup's, which lives as briefly).
///
/// Simulated message objects are small (64–512 bytes), allocated and freed
/// millions of times per trial, and — because every sim trial runs
/// entirely on one worker thread — never cross threads. So freed blocks go
/// onto a thread-local freelist bucketed by size class and are handed
/// straight back on the next allocation: steady state does no malloc at
/// all and reuses cache-warm memory.
///
/// Safety properties:
///  * every block is an individual ::operator new allocation — the pool
///    only caches freed blocks, so blocks still live when a thread exits
///    are untouched (a later free falls back to ::operator delete);
///  * oversize requests (> 512 bytes) pass through to ::operator new;
///  * under ASan the pool disables itself entirely so poisoned-memory
///    use-after-free detection keeps working on the message path.
///
/// PooledFree relies on the caller knowing the allocation size, which C++
/// sized operator delete provides for free on classes with virtual
/// destructors.
void* PooledAlloc(size_t size);
void PooledFree(void* p, size_t size);

struct MessagePoolStats {
  uint64_t allocs = 0;      // pooled allocations served
  uint64_t pool_hits = 0;   // ... of which came off a freelist
  uint64_t frees = 0;       // pooled frees accepted
  uint64_t oversize = 0;    // requests passed through to ::operator new
};

/// Stats for the calling thread's pool (all zero when the pool is
/// compiled out under ASan).
MessagePoolStats ThreadMessagePoolStats();

}  // namespace flowercdn

#endif  // FLOWERCDN_SIMCORE_MESSAGE_POOL_H_
