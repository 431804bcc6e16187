#include "cache/cache.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace cosim {

CacheStats&
CacheStats::operator+=(const CacheStats& o)
{
    accesses += o.accesses;
    reads += o.reads;
    writes += o.writes;
    misses += o.misses;
    readMisses += o.readMisses;
    writeMisses += o.writeMisses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    prefetchFills += o.prefetchFills;
    usefulPrefetches += o.usefulPrefetches;
    return *this;
}

Cache::Cache(const CacheParams& params) : params_(params)
{
    fatal_if(params_.lineSize < 8 || !isPowerOf2(params_.lineSize),
             "%s: line size %u must be a power of two >= 8",
             params_.name.c_str(), params_.lineSize);
    fatal_if(params_.assoc == 0, "%s: associativity must be nonzero",
             params_.name.c_str());
    fatal_if(params_.size % (static_cast<std::uint64_t>(params_.lineSize) *
                             params_.assoc) != 0,
             "%s: size %llu is not divisible by lineSize*assoc",
             params_.name.c_str(),
             static_cast<unsigned long long>(params_.size));

    sets_ = params_.sets();
    fatal_if(sets_ == 0, "%s: zero sets", params_.name.c_str());
    fatal_if(!isPowerOf2(sets_), "%s: set count %u must be a power of two",
             params_.name.c_str(), sets_);

    lineBits_ = floorLog2(params_.lineSize);
    setBits_ = floorLog2(sets_);
    lineMask_ = params_.lineSize - 1;
    setMask_ = sets_ - 1;

    std::size_t n = static_cast<std::size_t>(sets_) * params_.assoc;
    tags_.assign(n, 0);
    flags_.assign(n, 0);
    repl_ = ReplacementState::create(params_.repl, sets_, params_.assoc);
    lruView_ = repl_->lruDirect();
}

Cache::Lookup
Cache::lookup(Addr addr) const
{
    Addr line = addr >> lineBits_;
    Lookup l;
    l.set = static_cast<std::uint32_t>(line & setMask_);
    l.tag = line >> setBits_;
    l.way = -1;
    std::size_t base = static_cast<std::size_t>(l.set) * params_.assoc;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((flags_[base + w] & flagValid) != 0 && tags_[base + w] == l.tag) {
            l.way = static_cast<std::int32_t>(w);
            break;
        }
    }
    return l;
}

std::size_t
Cache::wayIndex(std::uint32_t set, std::uint32_t way) const
{
    return static_cast<std::size_t>(set) * params_.assoc + way;
}

std::uint32_t
Cache::install(std::uint32_t set, std::uint64_t tag, Outcome& outcome)
{
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;

    // Prefer an invalid way.
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((flags_[base + w] & flagValid) == 0) {
            tags_[base + w] = tag;
            flags_[base + w] = flagValid;
            repl_->fill(set, w);
            return w;
        }
    }

    std::uint32_t victim = repl_->victim(set);
    panic_if(victim >= params_.assoc, "%s: replacement chose way %u of %u",
             params_.name.c_str(), victim, params_.assoc);

    std::size_t vi = base + victim;
    outcome.evicted = true;
    outcome.evictedDirty = (flags_[vi] & flagDirty) != 0;
    // Reconstruct the victim's line address from tag and set.
    outcome.victimAddr =
        ((tags_[vi] << setBits_) | set) << lineBits_;
    ++stats_.evictions;
    if (outcome.evictedDirty)
        ++stats_.writebacks;

    tags_[vi] = tag;
    flags_[vi] = flagValid;
    repl_->fill(set, victim);
    return victim;
}

Cache::Outcome
Cache::access(Addr addr, bool write)
{
    Outcome outcome;
    ++stats_.accesses;
    if (write)
        ++stats_.writes;
    else
        ++stats_.reads;

    Lookup l = lookup(addr);
    if (l.way >= 0) {
        outcome.hit = true;
        std::size_t i = wayIndex(l.set, static_cast<std::uint32_t>(l.way));
        if ((flags_[i] & flagPrefetched) != 0) {
            outcome.firstHitOnPrefetch = true;
            ++stats_.usefulPrefetches;
            flags_[i] = static_cast<std::uint8_t>(flags_[i] &
                                                  ~flagPrefetched);
        }
        if (write)
            flags_[i] |= flagDirty;
        repl_->touch(l.set, static_cast<std::uint32_t>(l.way));
        return outcome;
    }

    ++stats_.misses;
    if (write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    std::uint32_t way = install(l.set, l.tag, outcome);
    if (write)
        flags_[wayIndex(l.set, way)] |= flagDirty;
    return outcome;
}

bool
Cache::prefetchFill(Addr addr)
{
    Lookup l = lookup(addr);
    if (l.way >= 0)
        return false;
    Outcome scratch;
    std::uint32_t way = install(l.set, l.tag, scratch);
    flags_[wayIndex(l.set, way)] |= flagPrefetched;
    ++stats_.prefetchFills;
    return true;
}

bool
Cache::probe(Addr addr) const
{
    return lookup(addr).way >= 0;
}

bool
Cache::invalidate(Addr addr)
{
    Lookup l = lookup(addr);
    if (l.way < 0)
        return false;
    std::size_t i = wayIndex(l.set, static_cast<std::uint32_t>(l.way));
    bool dirty = (flags_[i] & flagDirty) != 0;
    flags_[i] = 0;
    return dirty;
}

void
Cache::flush()
{
    std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
}

std::uint64_t
Cache::linesValid() const
{
    std::uint64_t n = 0;
    for (std::uint8_t f : flags_)
        if ((f & flagValid) != 0)
            ++n;
    return n;
}

void
CacheStats::addStats(stats::Group& group) const
{
    const CacheStats* s = this;
    addStats(group, [s] { return *s; });
}

void
CacheStats::addStats(stats::Group& group,
                     const std::function<CacheStats()>& read)
{
    group.add("accesses", [read] { return double(read().accesses); });
    group.add("reads", [read] { return double(read().reads); });
    group.add("writes", [read] { return double(read().writes); });
    group.add("misses", [read] { return double(read().misses); });
    group.add("read_misses", [read] { return double(read().readMisses); });
    group.add("write_misses",
              [read] { return double(read().writeMisses); });
    group.add("evictions", [read] { return double(read().evictions); });
    group.add("writebacks", [read] { return double(read().writebacks); });
    group.add("prefetch_fills",
              [read] { return double(read().prefetchFills); });
    group.add("useful_prefetches",
              [read] { return double(read().usefulPrefetches); });
    group.add("miss_rate", [read] { return read().missRate(); });
}

} // namespace cosim
