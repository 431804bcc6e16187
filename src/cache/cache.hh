/**
 * @file
 * Set-associative cache model with pluggable replacement.
 *
 * The model is functional (hit/miss + evictions), line-granular, and
 * write-allocate / write-back -- the organization Dragonhead emulated.
 * Timing lives in the CPU model, not here.
 */

#ifndef COSIM_CACHE_CACHE_HH
#define COSIM_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cache/replacement.hh"

namespace cosim {

/** Static geometry and policy of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;
    std::uint32_t lineSize = 64;
    std::uint32_t assoc = 8;
    ReplPolicy repl = ReplPolicy::LRU;

    /** Number of sets implied by the geometry. */
    std::uint32_t sets() const
    {
        return static_cast<std::uint32_t>(size / (static_cast<std::uint64_t>(
            lineSize) * assoc));
    }
};

/** Event counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t misses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t usefulPrefetches = 0;

    std::uint64_t hits() const { return accesses - misses; }
    double missRate() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(accesses);
    }

    void reset() { *this = CacheStats(); }

    CacheStats& operator+=(const CacheStats& o);

    /**
     * Register these counters (as lazily evaluated formulas) into
     * @p group; the group must not outlive this object.
     */
    void addStats(stats::Group& group) const;

    /**
     * Register, under the same names, the counters that @p read returns
     * at dump time (for counters that are composed, not stored).
     */
    static void addStats(stats::Group& group,
                         const std::function<CacheStats()>& read);
};

/**
 * One physical cache. All addresses are full byte addresses; the cache
 * masks them to lines internally. Accesses must not span a line (the CPU
 * model splits straddling references).
 */
class Cache
{
  public:
    /** What happened on a demand access. */
    struct Outcome
    {
        bool hit = false;
        /** A valid line was evicted to make room. */
        bool evicted = false;
        /** The evicted line was dirty (a writeback left the cache). */
        bool evictedDirty = false;
        /** Line address of the eviction victim (valid iff evicted). */
        Addr victimAddr = invalidAddr;
        /** The hit consumed a prefetched line for the first time. */
        bool firstHitOnPrefetch = false;
    };

    /** Validates geometry (power-of-two sizes, at least one set). */
    explicit Cache(const CacheParams& params);

    /** Demand access to the line containing @p addr. Fills on miss. */
    Outcome access(Addr addr, bool write);

    /**
     * Inlined fast path for the dominant case: a plain hit (valid line,
     * not carrying the prefetched flag) under LRU replacement. Performs
     * the *complete* hit -- access/read/write counters, dirty bit, LRU
     * touch through a raw stamp view -- with no virtual dispatch.
     *
     * @return true iff the access completed as a plain hit. On false
     * nothing was modified and the caller must take access(): the line
     * missed, is a first hit on a prefetched line (useful-prefetch
     * accounting), or the policy has no direct LRU view.
     */
    bool
    tryHitFast(Addr addr, bool write)
    {
        if (lruView_.stamps == nullptr)
            return false;
        const Addr line = addr >> lineBits_;
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & setMask_);
        const std::uint64_t tag = line >> setBits_;
        const std::size_t base =
            static_cast<std::size_t>(set) * params_.assoc;
        const std::uint64_t* tags = tags_.data() + base;
        std::uint8_t* flags = flags_.data() + base;
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            const std::uint8_t f = flags[w];
            if ((f & flagValid) == 0 || tags[w] != tag)
                continue;
            if ((f & flagPrefetched) != 0)
                return false; // full path owns useful-prefetch stats
            ++stats_.accesses;
            if (write) {
                ++stats_.writes;
                flags[w] = static_cast<std::uint8_t>(f | flagDirty);
            } else {
                ++stats_.reads;
            }
            lruView_.stamps[base + w] = ++*lruView_.clock;
            return true;
        }
        return false; // miss: full path installs the line
    }

    /**
     * Install the line containing @p addr as a (clean) prefetch.
     * @return true if the line was absent and is now installed.
     */
    bool prefetchFill(Addr addr);

    /** True iff the line containing @p addr is present (no side effects). */
    bool probe(Addr addr) const;

    /**
     * Drop the line containing @p addr if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Invalidate everything (stats are kept). */
    void flush();

    /** Number of valid lines currently held. */
    std::uint64_t linesValid() const;

    /** Line-aligned address helper. */
    Addr lineAddr(Addr a) const { return a & ~lineMask_; }

    const CacheParams& params() const { return params_; }
    const CacheStats& stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Register this cache's counters into @p group (CacheStats). */
    void addStats(stats::Group& group) const { stats_.addStats(group); }

  private:
    static constexpr std::uint8_t flagValid = 1;
    static constexpr std::uint8_t flagDirty = 2;
    static constexpr std::uint8_t flagPrefetched = 4;

    struct Lookup
    {
        std::uint32_t set;
        std::uint64_t tag;
        std::int32_t way; ///< -1 if not present
    };

    Lookup lookup(Addr addr) const;
    std::size_t wayIndex(std::uint32_t set, std::uint32_t way) const;

    /** Install @p tag into @p set, evicting if needed; returns way. */
    std::uint32_t install(std::uint32_t set, std::uint64_t tag,
                          Outcome& outcome);

    CacheParams params_;
    Addr lineMask_;
    unsigned lineBits_;
    std::uint32_t sets_;
    unsigned setBits_;
    std::uint64_t setMask_;

    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> flags_;
    std::unique_ptr<ReplacementState> repl_;
    /** Raw LRU stamp window (null stamps => no fast path). */
    LruDirectView lruView_;
    CacheStats stats_;
};

} // namespace cosim

#endif // COSIM_CACHE_CACHE_HH
