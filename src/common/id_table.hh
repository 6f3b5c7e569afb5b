/**
 * @file
 * A flat, open-addressed map from 64-bit ids to values.
 *
 * Built for the channel control plane (DESIGN.md §14): the executive
 * shard's channel registry and each fleet host's inbound route table
 * are keyed by ChannelIds that one process-wide counter issues in
 * ascending order, and stream churn destroys the oldest id while
 * inserting the newest. A node-based hash map turns every insert and
 * erase into a walk over heap nodes that belong to other buckets.
 * Here each entry sits inline in one slot array:
 *
 *  - linear probing;
 *  - key 0 marks an empty slot, so 0 can never be stored, and find()
 *    and erase() of 0 report not-found;
 *  - backward-shift deletion, so there are no tombstones and a probe
 *    stops at the first empty slot;
 *  - the array doubles before the load passes one half.
 *
 * The home slot folds the id's high bits onto its low bits with XOR
 * (every log2(capacity)-bit chunk of the id XORed together). It does
 * not scatter: ids that differ only in their low bits keep their
 * distance, so consecutively issued ids land in neighbouring slots
 * and churn walks the array almost sequentially. The fold still
 * spreads a power-of-two id stride over distinct slots, because the
 * stride's multiples differ in some chunk. Not thread-safe: callers
 * keep their own locks.
 */

#ifndef HYDRA_COMMON_ID_TABLE_HH
#define HYDRA_COMMON_ID_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra {

template <typename V>
class IdTable
{
    static_assert(std::is_nothrow_move_constructible_v<V> &&
                      std::is_nothrow_move_assignable_v<V>,
                  "IdTable values must move without throwing");

  public:
    using Key = std::uint64_t;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The value stored under @p key; nullptr if absent (or 0). */
    const V *
    find(Key key) const
    {
        const std::size_t i = slotOf(key);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    /**
     * Store @p value under @p key, replacing any value already there.
     * Returns false, storing nothing, for key 0.
     */
    bool
    insert(Key key, V value)
    {
        if (key == 0)
            return false;
        if (2 * (size_ + 1) > slots_.size())
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            Slot &slot = slots_[i];
            if (slot.key == key) {
                slot.value = std::move(value);
                return true;
            }
            if (slot.key == 0) {
                slot.key = key;
                slot.value = std::move(value);
                ++size_;
                return true;
            }
        }
    }

    /**
     * Remove @p key, moving its value into @p taken when given.
     * Returns false if the key was absent (or 0).
     */
    bool
    erase(Key key, V *taken = nullptr)
    {
        std::size_t hole = slotOf(key);
        if (hole == kAbsent)
            return false;
        if (taken)
            *taken = std::move(slots_[hole].value);
        // Backward shift: pull each later entry of the cluster into
        // the hole unless its home lies cyclically in (hole, next],
        // where moving it back would put it before its home.
        for (std::size_t next = (hole + 1) & mask(); slots_[next].key != 0;
             next = (next + 1) & mask()) {
            const std::size_t h = home(slots_[next].key);
            const bool stays = hole <= next ? hole < h && h <= next
                                            : hole < h || h <= next;
            if (stays)
                continue;
            slots_[hole].key = slots_[next].key;
            slots_[hole].value = std::move(slots_[next].value);
            hole = next;
        }
        slots_[hole].key = 0;
        slots_[hole].value = V();
        --size_;
        return true;
    }

    /** Call fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.key != 0)
                fn(slot.key, slot.value);
    }

    /**
     * The most slots any stored key's lookup inspects (1 = found in
     * its home slot; 0 when empty). A diagnostic for tests.
     */
    std::size_t
    longestProbe() const
    {
        std::size_t longest = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].key != 0)
                longest = std::max(
                    longest, ((i - home(slots_[i].key)) & mask()) + 1);
        return longest;
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    struct Slot
    {
        Key key = 0;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    /** Index of @p key's slot, or kAbsent. */
    std::size_t
    slotOf(Key key) const
    {
        if (key == 0 || slots_.empty())
            return kAbsent;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == 0)
                return kAbsent;
        }
    }

    std::size_t
    home(Key key) const
    {
        for (unsigned s = shift_; s < 64; s *= 2)
            key ^= key >> s;
        return static_cast<std::size_t>(key) & mask();
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t capacity =
            old.empty() ? kMinCapacity : 2 * old.size();
        slots_ = std::vector<Slot>(capacity);
        shift_ = static_cast<unsigned>(std::countr_zero(capacity));
        size_ = 0;
        for (Slot &slot : old)
            if (slot.key != 0)
                insert(slot.key, std::move(slot.value));
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** log2 of the capacity: the fold's chunk width. */
    unsigned shift_ = 0;
};

} // namespace hydra

#endif // HYDRA_COMMON_ID_TABLE_HH
