/**
 * @file
 * One CC (cache controller) FPGA of Dragonhead.
 *
 * The four CC FPGAs (CC0..CC3) each emulate an address-interleaved slice
 * of the shared last-level cache: line addresses are distributed
 * round-robin across the slices, and each slice is a set-associative
 * cache holding 1/nSlices of the total capacity. The controller keeps
 * per-core access/miss counters so the data-sharing behaviour across the
 * CMP's cores can be analyzed.
 *
 * The slice store is written for this one job: true LRU, write-allocate,
 * write-back, at most 16 ways. Each set is one 128-byte block holding
 * 32-bit tags, 8-bit LRU ages and valid/dirty bitmasks, so a lookup
 * touches one set block and no per-way side arrays. Invariant: the
 * valid ways of a set carry the ages 0..k-1 (0 = most recent), a
 * permutation; invalid ways' ages are meaningless.
 */

#ifndef COSIM_DRAGONHEAD_CACHE_CONTROLLER_HH
#define COSIM_DRAGONHEAD_CACHE_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "base/zeroed_buffer.hh"
#include "cache/cache.hh"

namespace cosim {

/** Per-core counters kept by a cache controller. */
struct CoreCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** See file comment. */
class CacheController
{
  public:
    /** Widest set the slice store holds. */
    static constexpr std::uint32_t maxWays = 16;

    /**
     * @param index which CC this is (0-based)
     * @param slice_params geometry of this slice (already divided);
     *        must be LRU with at most maxWays ways
     * @param max_cores number of per-core counter rows
     */
    CacheController(unsigned index, const CacheParams& slice_params,
                    unsigned max_cores);

    /**
     * Emulate one demand access.
     * @param addr byte address within this slice's address space
     * @param write whether the line should be installed/marked dirty
     * @param core the core the AF attributed this access to
     * @return true on hit
     */
    bool handleDemand(Addr addr, bool write, CoreId core);

    /** Start pulling the set block @p addr maps to into the host cache. */
    void
    prefetch(Addr addr) const
    {
        const char* block = reinterpret_cast<const char*>(
            sets_ + ((addr >> lineBits_) & setMask_));
        __builtin_prefetch(block, 1);
        __builtin_prefetch(block + 64, 1);
    }

    unsigned index() const { return index_; }
    const CacheParams& params() const { return params_; }

    const CoreCounters& coreCounters(CoreId core) const;
    const CacheStats& stats() const { return stats_; }

    /** Invalidate every line and zero all counters. */
    void reset();

  private:
    /** One set: tags, LRU ages and state bits of up to 16 ways. */
    struct alignas(128) SetBlock
    {
        std::uint32_t tags[maxWays];
        std::uint8_t ages[maxWays];
        std::uint16_t valid;
        std::uint16_t dirty;
    };

    unsigned index_;
    CacheParams params_;
    unsigned lineBits_;
    unsigned setBits_;
    std::uint64_t setMask_;
    /** Bitmask of the ways this geometry uses. */
    std::uint32_t wayMask_;
    ZeroedBuffer storage_;
    /** The set blocks, in storage_. */
    SetBlock* sets_;
    CacheStats stats_;
    std::vector<CoreCounters> perCore_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_CACHE_CONTROLLER_HH
