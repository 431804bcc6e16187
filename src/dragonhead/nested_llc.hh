/**
 * @file
 * One exact pass that emulates a nested LLC size sweep.
 *
 * Figures 4-6 snoop one bus with seven boards that differ only in
 * capacity (4-256 MB; 16-way LRU, 64 B lines, four interleaved slices,
 * bit-selection sets). With capacities c0 < c1 < ... every c(k+1) set
 * holds a subset of the address class of one c(k) set, so LRU inclusion
 * holds: a line cached at c(k) is cached at every larger capacity
 * (Mattson et al. 1970; Hill & Smith 1989). NestedLlc exploits that to
 * emulate all capacities in one pass whose results equal, counter for
 * counter, what one Dragonhead per capacity produces.
 *
 * Each capacity keeps its own set blocks (same set counts and 128 B
 * blocks as the boards'). A global access counter gives each line a
 * *stamp*; each way also holds a dirty bit and a *newer* bit, meaning
 * "this copy knows more than the copy one capacity up". Per forwarded
 * transaction on line L:
 *
 *  1. h is the smallest capacity holding L (probe c0, c1, ... up to the
 *     first tag match). By inclusion L hits at every capacity >= h and
 *     misses below it.
 *  2. h = 0: re-stamp L's c0 way, OR in the write, set newer. Nothing
 *     else is touched.
 *  3. Otherwise, for each k < h in turn: count the miss; take a free
 *     way, or else evict the smallest-stamp way whose line is not held
 *     at c(k-1), checked against the c(k-1) block this access has just
 *     updated; count the eviction and a writeback if the victim is
 *     dirty; if the victim's copy is newer, move its stamp and dirty bit
 *     up into its c(k+1) way (setting newer there); install L with the
 *     current stamp, dirty = write, and newer only at k = h-1 < top.
 *
 * Invariant: the copy at the smallest capacity holding a line has the
 * line's exact last-use stamp and its written-since-fill bit. Larger
 * copies may be stale, but only while a smaller one holds the line.
 *
 * Why a held line is never the victim: the c(k-1) block holds the most
 * recent lines of its address class, a superset of the c(k) set's, so
 * every line held one capacity down is more recent than every line of
 * the c(k) set that is not. The true LRU of a full c(k) set is therefore
 * the oldest line that c(k-1) does not hold, and that line's c(k) stamp
 * is exact by the invariant. The one line just evicted from c(k-1) had
 * its stamp moved up first, so it competes with its true recency.
 *
 * Accesses, reads, writes and per-core accesses are equal at every
 * capacity and are counted once; misses, evictions and writebacks are
 * counted per capacity. One address filter regulates the bus for every
 * capacity; each capacity keeps its own CB, so sample series and trace
 * labels are the boards'.
 */

#ifndef COSIM_DRAGONHEAD_NESTED_LLC_HH
#define COSIM_DRAGONHEAD_NESTED_LLC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/zeroed_buffer.hh"
#include "dragonhead/address_filter.hh"
#include "dragonhead/llc_view.hh"

namespace cosim {

/** See file comment. */
class NestedLlc : public LlcEmulator
{
  public:
    /** Most capacities one pass emulates. */
    static constexpr unsigned maxLevels = 16;

    /** Transactions between a set-block prefetch and its use. */
    static constexpr std::size_t prefetchDistance = 8;

    /**
     * Whether @p configs nest, so one pass can replace their boards:
     * two or more distinct capacities that boards accept, with equal
     * line size, associativity, slice count, per-core rows and CB
     * sampling, all LRU and Interleaved.
     */
    static bool nests(const std::vector<DragonheadParams>& configs);

    /** @param configs a nesting set (nests()), in any order. */
    explicit NestedLlc(const std::vector<DragonheadParams>& configs);
    ~NestedLlc() override;

    NestedLlc(const NestedLlc&) = delete;
    NestedLlc& operator=(const NestedLlc&) = delete;

    /** BusSnooper: regulate and emulate one transaction. */
    void observe(const BusTransaction& txn) override;

    /** BusSnooper: a chunk, prefetching the set blocks of the
     * transaction prefetchDistance ahead. */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    void reset() override;
    unsigned nConfigs() const override;
    /** Configuration @p i in the order the constructor was given. */
    const LlcView& config(unsigned i) const override;

    /**
     * Renumber every stored stamp densely, keeping their order. Runs by
     * itself before the access counter outgrows its 29 bits; public so
     * a test can interleave it with a stream.
     */
    void renumberStamps();

  private:
    class Level;

    /** One set of one capacity: 16 tags and 16 stamps. */
    struct alignas(128) SetBlock
    {
        /** Smallest capacity's tag of the line, plus one; 0 = empty. */
        std::uint32_t tags[16];
        /** Access counter << 2 | dirty << 1 | newer (below 2^31). */
        std::uint32_t stamps[16];
    };

    /** Miss-side counters of one slice at one capacity. */
    struct SliceMisses
    {
        std::uint64_t misses = 0;
        std::uint64_t readMisses = 0;
        std::uint64_t writeMisses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;
    };

    /** Counters shared by every capacity, per slice. */
    struct SliceAccesses
    {
        std::uint64_t accesses = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    /** Emulate one demand access to @p addr by @p core. */
    void access(Addr addr, bool write, CoreId core);

    /** Move victim @p key's stamp and dirty bit from capacity @p k up
     * into its c(k+1) way; @p line is any line of its c(k) block. */
    void writeUp(unsigned k, Addr line, std::uint32_t key,
                 std::uint32_t stamp);

    unsigned nSlices_;
    unsigned maxCores_;
    unsigned lineBits_;
    /** Line bits below the smallest capacity's tag. */
    unsigned tagShift_;
    Addr sliceMask_;
    std::uint32_t wayMask_;

    AddressFilter af_;
    /** Capacities, smallest first. */
    std::vector<std::unique_ptr<Level>> levels_;
    /** byConfig_[i]: the capacity of constructor configuration i. */
    std::vector<const Level*> byConfig_;

    /** Hot-path copies of each capacity's blocks and set masks. */
    unsigned nLevels_;
    SetBlock* sets_[maxLevels];
    Addr setMask_[maxLevels];

    std::vector<SliceAccesses> sliceAccesses_;
    /** [slice * maxCores_ + core] */
    std::vector<std::uint64_t> coreAccesses_;
    /** [capacity * nSlices_ + slice] */
    std::vector<SliceMisses> misses_;
    /** [(capacity * nSlices_ + slice) * maxCores_ + core] */
    std::vector<std::uint64_t> coreMisses_;
    /** Accesses stamped so far; the next stamp is (clock_ + 1) << 2. */
    std::uint32_t clock_ = 0;
    /** Capacities the last access missed (its h); steers prefetch. */
    unsigned lastDepth_ = 0;
};

/**
 * The emulation units for @p configs: one NestedLlc pass when they nest
 * (NestedLlc::nests), else one Dragonhead board per configuration.
 */
std::vector<std::unique_ptr<LlcEmulator>>
makeLlcEmulators(const std::vector<DragonheadParams>& configs);

} // namespace cosim

#endif // COSIM_DRAGONHEAD_NESTED_LLC_HH
