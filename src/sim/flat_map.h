/**
 * @file
 * Open-addressed hash map for integer keys on per-record hot paths.
 *
 * std::unordered_map allocates a node per insert and chases a pointer
 * per lookup.  The maps this replaces run once per trace record (the v2
 * codec's per-site delta table) or once per replay prefetch and demand
 * access (RnR's timeliness map), so FlatMap keeps keys and values inline
 * in one power-of-two slot array with linear probing, at most half full:
 *
 *  - clear() is O(1).  Every slot carries the epoch it was written in,
 *    and a slot from an older epoch is empty, so a table cleared per
 *    trace block costs nothing however many keys the block held.
 *  - erase() shifts the rest of the probe run back (no tombstones), so
 *    steady insert/erase churn never lengthens probes.
 *
 * There is no iteration: callers that need an order keep it themselves.
 */
#ifndef RNR_SIM_FLAT_MAP_H
#define RNR_SIM_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rnr {

/** Integer-keyed map with inline slots (see file comment). */
template <typename Key, typename Value>
class FlatMap
{
  public:
    FlatMap() { rehash(16); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    Value *
    find(Key k)
    {
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.epoch != epoch_)
                return nullptr;
            if (s.key == k)
                return &s.value;
        }
    }

    /** The value under @p k, value-initialised when it is absent; one
     *  probe sequence.  @p inserted tells which case it was. */
    Value &
    emplace(Key k, bool &inserted)
    {
        if ((size_ + 1) * 2 > slots_.size())
            rehash(slots_.size() * 2);
        std::size_t i = home(k);
        for (; slots_[i].epoch == epoch_; i = (i + 1) & mask_)
            if (slots_[i].key == k) {
                inserted = false;
                return slots_[i].value;
            }
        inserted = true;
        ++size_;
        Slot &s = slots_[i];
        s.key = k;
        s.epoch = epoch_;
        s.value = Value{};
        return s.value;
    }

    Value &
    operator[](Key k)
    {
        bool inserted = false;
        return emplace(k, inserted);
    }

    /** Removes @p k; returns whether it was present. */
    bool
    erase(Key k)
    {
        const std::size_t i = locate(k);
        if (i == kAbsent)
            return false;
        removeAt(i);
        return true;
    }

    /** Copies the value under @p k into @p out and removes @p k, in one
     *  probe sequence; returns whether it was present. */
    bool
    take(Key k, Value &out)
    {
        const std::size_t i = locate(k);
        if (i == kAbsent)
            return false;
        out = slots_[i].value;
        removeAt(i);
        return true;
    }

    /** Empties the map in O(1); capacity is kept. */
    void
    clear()
    {
        size_ = 0;
        if (++epoch_ == 0) { // wrapped: stale stamps could read as live
            for (Slot &s : slots_)
                s.epoch = 0;
            epoch_ = 1;
        }
    }

  private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** The slot holding @p k, or kAbsent. */
    std::size_t
    locate(Key k) const
    {
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            if (slots_[i].epoch != epoch_)
                return kAbsent;
            if (slots_[i].key == k)
                return i;
        }
    }

    /** Empties live slot @p hole; backward shift: pull each later entry
     *  of the run into the hole unless its home lies cyclically in
     *  (hole, j]. */
    void
    removeAt(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].epoch == epoch_; j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].epoch = epoch_ - 1;
        --size_;
    }

    struct Slot {
        Key key{};
        std::uint32_t epoch = 0; ///< Live iff equal to the map's epoch_.
        Value value{};
    };

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    home(Key k) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old;
        old.swap(slots_);
        const std::uint32_t old_epoch = epoch_;
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        shift_ = 64;
        for (std::size_t c = capacity; c > 1; c >>= 1)
            --shift_;
        epoch_ = 1;
        for (const Slot &s : old) {
            if (s.epoch != old_epoch)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].epoch == epoch_)
                i = (i + 1) & mask_;
            slots_[i] = s;
            slots_[i].epoch = epoch_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::uint32_t epoch_ = 1;
    std::size_t size_ = 0;
};

} // namespace rnr

#endif // RNR_SIM_FLAT_MAP_H
