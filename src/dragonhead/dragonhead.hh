/**
 * @file
 * The assembled Dragonhead cache emulator.
 *
 * Six FPGAs on the physical board: AF (address filter), CC0..CC3 (cache
 * controller slices) and CB (control block). This class wires the
 * software models of those blocks together and exposes the host-computer
 * view: configure a cache, snoop the bus, read performance data.
 *
 * Like the FPGA, the emulator is *passive*: it never affects what the
 * cores do, so any number of Dragonhead instances with different cache
 * configurations can snoop the same bus simultaneously -- that is how the
 * benches evaluate a whole cache-size sweep in a single workload run.
 */

#ifndef COSIM_DRAGONHEAD_DRAGONHEAD_HH
#define COSIM_DRAGONHEAD_DRAGONHEAD_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "dragonhead/address_filter.hh"
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

/** See file comment. */
class Dragonhead : public BusSnooper
{
  public:
    /** Transactions between a set-block prefetch and its use. */
    static constexpr std::size_t prefetchDistance = 8;

    explicit Dragonhead(const DragonheadParams& params);
    ~Dragonhead() override;

    /** BusSnooper: regulate and emulate one transaction. */
    void observe(const BusTransaction& txn) override;

    /**
     * BusSnooper: emulate a chunk. Semantically identical to observing
     * each transaction in turn, but pays the virtual dispatch once per
     * chunk instead of once per transaction, and prefetches the set
     * block of the transaction prefetchDistance ahead so the slice
     * lookups overlap their host cache misses.
     */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    /** Aggregated results over the whole emulation window. */
    LlcResults results() const;

    /** Per-core accesses/misses summed over slices. */
    CoreCounters coreResults(CoreId core) const;

    /** The 500 us sample series. */
    const std::vector<Sample>& samples() const { return cb_.samples(); }

    const DragonheadParams& params() const { return params_; }
    const AddressFilter& addressFilter() const { return af_; }
    const CacheController& slice(unsigned i) const;
    unsigned nSlices() const
    {
        return static_cast<unsigned>(ccs_.size());
    }

    /** Return the board to power-on state. */
    void reset();

    /**
     * Register this emulator's stats into @p registry under
     * "<prefix>" (aggregate) and "<prefix>.cc<i>" (per slice).
     * @return the stored aggregate group, so callers can append stats
     * of their own (the AsyncEmulatorBank adds delivery counters).
     */
    stats::Group& registerStats(obs::StatsRegistry& registry,
                                const std::string& prefix) const;

  private:
    /** Where a demand access lands: a slice and its local address. */
    struct Route
    {
        CacheController* cc;
        Addr addr;
    };

    /** Slice selection and slice-select fold for @p addr from @p core. */
    Route
    locate(Addr addr, CoreId core) const
    {
        const std::size_t slice_mask = ccs_.size() - 1;
        if (params_.partitioning == LlcPartitioning::PerCore) {
            // Private partitions: the slice is the issuing core's, and
            // the full address indexes it.
            return {ccs_[core & slice_mask].get(), addr};
        }
        // Fold the slice-select bits out of the address the slice
        // indexes with, exactly as the physical interleave does --
        // otherwise each CC would only ever touch 1/nSlices of its sets.
        const Addr line = addr >> lineBits_;
        return {ccs_[line & slice_mask].get(),
                (line >> sliceBits_) << lineBits_};
    }

    DragonheadParams params_;
    AddressFilter af_;
    std::vector<std::unique_ptr<CacheController>> ccs_;
    ControlBlock cb_;
    unsigned lineBits_;
    unsigned sliceBits_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_DRAGONHEAD_HH
