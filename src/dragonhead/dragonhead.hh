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
 * (A sweep whose capacities nest runs as one NestedLlc pass instead,
 * with the same results; see dragonhead/nested_llc.hh.)
 */

#ifndef COSIM_DRAGONHEAD_DRAGONHEAD_HH
#define COSIM_DRAGONHEAD_DRAGONHEAD_HH

#include <memory>
#include <string>
#include <vector>

#include "dragonhead/address_filter.hh"
#include "dragonhead/cache_controller.hh"
#include "dragonhead/control_block.hh"
#include "dragonhead/llc_view.hh"

namespace cosim {

/** See file comment. */
class Dragonhead : public LlcEmulator, public LlcView
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

    const DragonheadParams& params() const override { return params_; }
    const AddressFilter& addressFilter() const { return af_; }
    const CacheController& slice(unsigned i) const;
    unsigned
    nSlices() const override
    {
        return static_cast<unsigned>(ccs_.size());
    }

    /** LlcView: the slices' own counters. @{ */
    CacheStats sliceStats(unsigned i) const override;
    CoreCounters sliceCoreCounters(unsigned i, CoreId core) const override;
    const ControlBlock& controlBlock() const override { return cb_; }
    /** @} */

    /** LlcEmulator: a board emulates one configuration, itself. @{ */
    unsigned nConfigs() const override { return 1; }
    const LlcView& config(unsigned i) const override;
    /** @} */

    /** Return the board to power-on state. */
    void reset() override;

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
