/**
 * @file
 * exec::Callback: the one callable type the engines queue and run.
 *
 * A move-only `void()` callable with fixed inline storage. Every
 * per-message closure of the substrate fits the inline buffer — the
 * largest is the NIC tx closure (this, a SpanContext and an 80-byte
 * Packet: 112 B) — so scheduling, posting and dispatching an event
 * touches no heap. A larger (or over-aligned, or throwing-move)
 * callable still works: it is kept on the heap behind a pointer in
 * the inline buffer.
 *
 * std::function would copy-require its target and keeps only 16
 * bytes inline; std::move_only_function is C++23 and no larger.
 *
 * CallbackSlab is the address-stable cell pool callbacks wait in:
 * a held cell never moves, so a callback can run in place while it
 * schedules further callbacks into the same slab.
 */

#ifndef HYDRA_EXEC_CALLBACK_HH
#define HYDRA_EXEC_CALLBACK_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra::exec {

/** Move-only `void()` callable; captures up to kInlineBytes inline. */
class Callback
{
  public:
    /** Inline capture budget; sizeof(Callback) is two cache lines. */
    static constexpr std::size_t kInlineBytes = 120;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                          std::is_invocable_v<Fn &>>>
    Callback(F &&fn)
    {
        // Like std::function: a null target makes an empty callback.
        if constexpr (std::is_pointer_v<Fn> || isStdFunction<Fn>::value) {
            if (!fn)
                return;
        }
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    Callback(Callback &&other) noexcept { take(other); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    Callback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Run the target; the callback must not be empty. */
    void
    operator()() const
    {
        assert(ops_ && "calling an empty exec::Callback");
        ops_->invoke(storage_);
    }

    /** True when the target lives in the inline buffer (tests). */
    bool isInline() const noexcept { return ops_ && !ops_->onHeap; }

    /** Destroy the target, leaving the callback empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct at @p dst from @p src, then destroy @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *storage) noexcept;
        bool onHeap;
    };

    template <typename Fn>
    struct isStdFunction : std::false_type
    {
    };
    template <typename Sig>
    struct isStdFunction<std::function<Sig>> : std::true_type
    {
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops kInlineOps{
        [](void *storage) { (*static_cast<Fn *>(storage))(); },
        [](void *dst, void *src) noexcept {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *storage) noexcept { static_cast<Fn *>(storage)->~Fn(); },
        false};

    template <typename Fn>
    static constexpr Ops kHeapOps{
        [](void *storage) { (**static_cast<Fn **>(storage))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *storage) noexcept { delete *static_cast<Fn **>(storage); },
        true};

    void
    take(Callback &other) noexcept
    {
        if (!other.ops_)
            return;
        other.ops_->relocate(storage_, other.storage_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
    }

    alignas(std::max_align_t) mutable unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

static_assert(sizeof(Callback) == 128);

/**
 * Address-stable pool of Callback cells with a LIFO free list. Cells
 * come in fixed chunks that are never moved or freed before the slab
 * is, so a held cell may run in place while the slab grows. Not
 * thread-safe: the owner serializes access.
 */
class CallbackSlab
{
  public:
    using Slot = std::uint32_t;

    /** Move @p fn into a free cell; returns the cell's slot. */
    Slot
    hold(Callback &&fn)
    {
        Slot slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            if (cells_ % kChunk == 0)
                chunks_.push_back(std::make_unique<Callback[]>(kChunk));
            slot = cells_++;
        }
        at(slot) = std::move(fn);
        return slot;
    }

    /** The callback held in @p slot. */
    Callback &
    at(Slot slot)
    {
        return chunks_[slot / kChunk][slot % kChunk];
    }

    /** Destroy @p slot's callback and return the cell to the pool. */
    void
    release(Slot slot)
    {
        at(slot).reset();
        free_.push_back(slot);
    }

  private:
    static constexpr Slot kChunk = 64;

    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::vector<Slot> free_;
    Slot cells_ = 0;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_CALLBACK_HH
