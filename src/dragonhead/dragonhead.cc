#include "dragonhead/dragonhead.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace cosim {

Dragonhead::Dragonhead(const DragonheadParams& params)
    : params_(params), cb_(labeledCb(params))
{
    fatal_if(params_.nSlices == 0, "Dragonhead needs at least one CC");
    fatal_if(!isPowerOf2(params_.nSlices),
             "slice count %u must be a power of two", params_.nSlices);

    const CacheParams& llc = params_.llc;
    fatal_if(llc.size % params_.nSlices != 0,
             "LLC size %llu not divisible across %u slices",
             static_cast<unsigned long long>(llc.size), params_.nSlices);

    CacheParams slice = llc;
    slice.size = llc.size / params_.nSlices;
    fatal_if(slice.sets() == 0,
             "LLC too small: a slice has no complete set");

    for (unsigned i = 0; i < params_.nSlices; ++i) {
        slice.name = llc.name + ".cc" + std::to_string(i);
        ccs_.push_back(std::make_unique<CacheController>(
            i, slice, params_.maxCores));
    }

    cb_.attachCounters([this](std::uint64_t& accesses,
                              std::uint64_t& misses) {
        for (const auto& cc : ccs_) {
            accesses += cc->stats().accesses;
            misses += cc->stats().misses;
        }
    });

    lineBits_ = floorLog2(llc.lineSize);
    sliceBits_ = floorLog2(params_.nSlices);
}

Dragonhead::~Dragonhead() = default;

void
Dragonhead::observe(const BusTransaction& txn)
{
    CoreId core = 0;
    msg::Message m{};
    switch (af_.process(txn, core, m)) {
      case FilterAction::Dropped:
        return;
      case FilterAction::Consumed:
        cb_.onMessage(m);
        return;
      case FilterAction::Forward:
        break;
    }

    // Prefetch fills brought lines into *private* caches; the shared LLC
    // still observes them as line reads. WriteLine transactions install
    // the line dirty.
    const Route r = locate(txn.addr, core);
    r.cc->handleDemand(r.addr, txn.kind == TxnKind::WriteLine, core);
}

void
Dragonhead::observeBatch(const BusTransaction* txns, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        // Only a hint: a core switch before the prefetched transaction
        // may route it elsewhere, which costs a host miss, not a result.
        if (i + prefetchDistance < n) {
            const BusTransaction& ahead = txns[i + prefetchDistance];
            if (ahead.kind != TxnKind::Message) {
                const Route r = locate(ahead.addr, af_.currentCore());
                r.cc->prefetch(r.addr);
            }
        }
        // Qualified call: no virtual dispatch inside the chunk loop.
        Dragonhead::observe(txns[i]);
    }
}

const CacheController&
Dragonhead::slice(unsigned i) const
{
    panic_if(i >= ccs_.size(), "slice index %u out of range", i);
    return *ccs_[i];
}

CacheStats
Dragonhead::sliceStats(unsigned i) const
{
    return slice(i).stats();
}

CoreCounters
Dragonhead::sliceCoreCounters(unsigned i, CoreId core) const
{
    return slice(i).coreCounters(core);
}

const LlcView&
Dragonhead::config(unsigned i) const
{
    panic_if(i != 0, "a board has one configuration, not %u", i + 1);
    return *this;
}

void
Dragonhead::reset()
{
    af_.reset();
    cb_.reset();
    for (auto& cc : ccs_)
        cc->reset();
}

} // namespace cosim
