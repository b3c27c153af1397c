#ifndef FLOWERCDN_UTIL_FUNCTION_H_
#define FLOWERCDN_UTIL_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flowercdn {

/// Move-only type-erased callable with small-buffer optimization — the
/// event queue's workhorse. Unlike std::function it can hold move-only
/// captures (unique_ptr messages) and avoids a heap allocation for the
/// typical small lambda, which matters when a simulation dispatches
/// hundreds of millions of events.
template <typename Signature>
class MoveOnlyFn;

template <typename R, typename... Args>
class MoveOnlyFn<R(Args...)> {
 public:
  MoveOnlyFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveOnlyFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  MoveOnlyFn(F&& f) {  // NOLINT(runtime/explicit): mirrors std::function
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineSize &&
                  alignof(Decayed) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      new (&storage_) Decayed(std::forward<F>(f));
      ops_ = &InlineOps<Decayed>::kOps;
    } else {
      heap_ = new Decayed(std::forward<F>(f));
      ops_ = &HeapOps<Decayed>::kOps;
    }
  }

  MoveOnlyFn(MoveOnlyFn&& other) noexcept { MoveFrom(std::move(other)); }

  MoveOnlyFn& operator=(MoveOnlyFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  MoveOnlyFn(const MoveOnlyFn&) = delete;
  MoveOnlyFn& operator=(const MoveOnlyFn&) = delete;

  ~MoveOnlyFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(this, std::forward<Args>(args)...);
  }

 private:
  static constexpr size_t kInlineSize = 48;

  struct Ops {
    R (*invoke)(MoveOnlyFn*, Args&&...);
    void (*destroy)(MoveOnlyFn*);
    void (*relocate)(MoveOnlyFn* to, MoveOnlyFn* from);
  };

  template <typename F>
  struct InlineOps {
    static F* Get(MoveOnlyFn* self) {
      return std::launder(reinterpret_cast<F*>(&self->storage_));
    }
    static R Invoke(MoveOnlyFn* self, Args&&... args) {
      return (*Get(self))(std::forward<Args>(args)...);
    }
    static void Destroy(MoveOnlyFn* self) { Get(self)->~F(); }
    static void Relocate(MoveOnlyFn* to, MoveOnlyFn* from) {
      new (&to->storage_) F(std::move(*Get(from)));
      Get(from)->~F();
    }
    static constexpr Ops kOps{&Invoke, &Destroy, &Relocate};
  };

  template <typename F>
  struct HeapOps {
    static R Invoke(MoveOnlyFn* self, Args&&... args) {
      return (*static_cast<F*>(self->heap_))(std::forward<Args>(args)...);
    }
    static void Destroy(MoveOnlyFn* self) {
      delete static_cast<F*>(self->heap_);
    }
    static void Relocate(MoveOnlyFn* to, MoveOnlyFn* from) {
      to->heap_ = from->heap_;
      from->heap_ = nullptr;
    }
    static constexpr Ops kOps{&Invoke, &Destroy, &Relocate};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

  void MoveFrom(MoveOnlyFn&& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(this, &other);
      other.ops_ = nullptr;
    }
  }

  // Pointer alignment, not max_align_t: closures capture pointers and
  // 64-bit ids, and the narrower alignment keeps sizeof at 56 instead of
  // 64 (an over-aligned closure simply takes the heap path).
  const Ops* ops_ = nullptr;
  union {
    alignas(void*) unsigned char storage_[kInlineSize];
    void* heap_;
  };
};

/// The event callback type used across the simulation kernel.
using EventFn = MoveOnlyFn<void()>;

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_FUNCTION_H_
