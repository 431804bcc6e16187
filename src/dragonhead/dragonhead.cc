#include "dragonhead/dragonhead.hh"

#include "base/bitops.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/units.hh"

namespace cosim {

namespace {

/** CB trace label: distinct per configuration ("llc.32MB.64B"). */
ControlBlockParams
labeledCb(const DragonheadParams& params)
{
    ControlBlockParams cb = params.cb;
    if (cb.traceLabel == "cb") {
        cb.traceLabel = params.llc.name + "." +
                        formatSize(params.llc.size) + "." +
                        formatSize(params.llc.lineSize);
    }
    return cb;
}

} // namespace

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

    std::vector<CacheController*> raw;
    raw.reserve(ccs_.size());
    for (auto& cc : ccs_)
        raw.push_back(cc.get());
    cb_.attachControllers(raw);

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

LlcResults
Dragonhead::results() const
{
    LlcResults r;
    for (const auto& cc : ccs_) {
        r.accesses += cc->stats().accesses;
        r.misses += cc->stats().misses;
    }
    r.insts = cb_.totalInsts();
    r.cycles = cb_.totalCycles();
    return r;
}

CoreCounters
Dragonhead::coreResults(CoreId core) const
{
    CoreCounters out;
    for (const auto& cc : ccs_) {
        const CoreCounters& c = cc->coreCounters(core);
        out.accesses += c.accesses;
        out.misses += c.misses;
    }
    return out;
}

const CacheController&
Dragonhead::slice(unsigned i) const
{
    panic_if(i >= ccs_.size(), "slice index %u out of range", i);
    return *ccs_[i];
}

stats::Group&
Dragonhead::registerStats(obs::StatsRegistry& registry,
                          const std::string& prefix) const
{
    stats::Group agg(prefix);
    agg.add("accesses", [this] { return double(results().accesses); });
    agg.add("misses", [this] { return double(results().misses); });
    agg.add("insts", [this] { return double(cb_.totalInsts()); });
    agg.add("cycles", [this] { return double(cb_.totalCycles()); });
    agg.add("mpki", [this] { return results().mpki(); });
    agg.add("miss_rate", [this] { return results().missRate(); });
    agg.add("samples",
            [this] { return double(cb_.samples().size()); });
    stats::Group& stored = registry.add(std::move(agg));

    for (unsigned i = 0; i < nSlices(); ++i) {
        stats::Group g(prefix + ".cc" + std::to_string(i));
        ccs_[i]->addStats(g);
        registry.add(std::move(g));
    }
    return stored;
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
