/**
 * @file
 * The host-computer view of emulated LLC configurations.
 *
 * A configuration is one DragonheadParams: an LLC geometry, its slices
 * and its CB. What the host reads back per configuration -- slice
 * counters, per-core rows, the CB sample series and the stats groups --
 * is an LlcView, whatever emulates it. An LlcEmulator is one unit on
 * the bus that emulates one or more configurations: a Dragonhead board
 * emulates exactly one; a NestedLlc pass emulates a whole nested size
 * sweep at once (dragonhead/nested_llc.hh).
 */

#ifndef COSIM_DRAGONHEAD_LLC_VIEW_HH
#define COSIM_DRAGONHEAD_LLC_VIEW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "dragonhead/cache_controller.hh"
#include "dragonhead/control_block.hh"
#include "mem/fsb.hh"
#include "obs/stats_registry.hh"

namespace cosim {

/** How the LLC capacity is divided among the CC slices. */
enum class LlcPartitioning : std::uint8_t
{
    /** One shared LLC, line addresses interleaved across slices (the
     * physical Dragonhead board). */
    Interleaved,
    /** Equal private per-core partitions: slice = core id. The FPGA
     * could be programmed this way too; it answers the shared-vs-
     * private LLC question of the related work (PHA$E, Liu et al.). */
    PerCore,
};

/** Host-side configuration of the emulator. */
struct DragonheadParams
{
    /** Geometry of the emulated LLC (total capacity, not per slice). */
    CacheParams llc{"llc", 32 * 1024 * 1024, 64, 16, ReplPolicy::LRU};

    /** Number of cache-controller slices (the physical board had 4).
     * In PerCore mode this is the number of cores/partitions. */
    unsigned nSlices = 4;

    /** Capacity division policy. */
    LlcPartitioning partitioning = LlcPartitioning::Interleaved;

    /** Rows of per-core counters. */
    unsigned maxCores = 64;

    /** CB sampling configuration. */
    ControlBlockParams cb;
};

/** Aggregated LLC results, the host-computer view. */
struct LlcResults
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    InstCount insts = 0;
    Cycles cycles = 0;

    double mpki() const
    {
        return insts == 0 ? 0.0
                          : 1000.0 * static_cast<double>(misses) /
                                static_cast<double>(insts);
    }

    double missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** CB trace label: distinct per configuration ("llc.32MB.64B"). */
ControlBlockParams labeledCb(const DragonheadParams& params);

/** See file comment: the read-only results of one configuration. */
class LlcView
{
  public:
    virtual ~LlcView() = default;

    virtual const DragonheadParams& params() const = 0;
    virtual unsigned nSlices() const = 0;

    /** Cache counters of slice @p i. */
    virtual CacheStats sliceStats(unsigned i) const = 0;

    /** Accesses and misses of @p core in slice @p i. */
    virtual CoreCounters sliceCoreCounters(unsigned i,
                                           CoreId core) const = 0;

    /** The CB: instruction and cycle totals and the sample series. */
    virtual const ControlBlock& controlBlock() const = 0;

    /** Aggregated results over the whole emulation window. */
    LlcResults results() const;

    /** Per-core accesses/misses summed over slices. */
    CoreCounters coreResults(CoreId core) const;

    /** The 500 us sample series. */
    const std::vector<Sample>&
    samples() const
    {
        return controlBlock().samples();
    }

    /**
     * Register this configuration's stats into @p registry under
     * "<prefix>" (aggregate) and "<prefix>.cc<i>" (per slice).
     * @return the stored aggregate group, so callers can append stats
     * of their own (the AsyncEmulatorBank adds delivery counters).
     */
    stats::Group& registerStats(obs::StatsRegistry& registry,
                                const std::string& prefix) const;
};

/** See file comment: one emulation unit on the bus. */
class LlcEmulator : public BusSnooper
{
  public:
    /** Return every configuration to power-on state. */
    virtual void reset() = 0;

    /** Configurations this unit emulates. */
    virtual unsigned nConfigs() const = 0;

    /** Results of configuration @p i, in construction order. */
    virtual const LlcView& config(unsigned i) const = 0;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_LLC_VIEW_HH
