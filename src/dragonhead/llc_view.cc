#include "dragonhead/llc_view.hh"

#include "base/units.hh"

namespace cosim {

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

LlcResults
LlcView::results() const
{
    LlcResults r;
    for (unsigned i = 0; i < nSlices(); ++i) {
        const CacheStats s = sliceStats(i);
        r.accesses += s.accesses;
        r.misses += s.misses;
    }
    r.insts = controlBlock().totalInsts();
    r.cycles = controlBlock().totalCycles();
    return r;
}

CoreCounters
LlcView::coreResults(CoreId core) const
{
    CoreCounters out;
    for (unsigned i = 0; i < nSlices(); ++i) {
        const CoreCounters c = sliceCoreCounters(i, core);
        out.accesses += c.accesses;
        out.misses += c.misses;
    }
    return out;
}

stats::Group&
LlcView::registerStats(obs::StatsRegistry& registry,
                       const std::string& prefix) const
{
    stats::Group agg(prefix);
    agg.add("accesses", [this] { return double(results().accesses); });
    agg.add("misses", [this] { return double(results().misses); });
    agg.add("insts",
            [this] { return double(controlBlock().totalInsts()); });
    agg.add("cycles",
            [this] { return double(controlBlock().totalCycles()); });
    agg.add("mpki", [this] { return results().mpki(); });
    agg.add("miss_rate", [this] { return results().missRate(); });
    agg.add("samples", [this] { return double(samples().size()); });
    stats::Group& stored = registry.add(std::move(agg));

    for (unsigned i = 0; i < nSlices(); ++i) {
        stats::Group g(prefix + ".cc" + std::to_string(i));
        CacheStats::addStats(g, [this, i] { return sliceStats(i); });
        registry.add(std::move(g));
    }
    return stored;
}

} // namespace cosim
