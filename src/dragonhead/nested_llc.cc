#include "dragonhead/nested_llc.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <limits>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "dragonhead/dragonhead.hh"
#include "dragonhead/tag_match.hh"

namespace cosim {

namespace {

constexpr std::uint32_t newerBit = 1;
constexpr std::uint32_t dirtyBit = 2;
constexpr std::uint32_t flagBits = newerBit | dirtyBit;

/** Renumber before a stamp could reach the sign bit: stamps then
 * compare correctly as signed 32-bit lanes. */
constexpr std::uint32_t clockLimit = (std::uint32_t{1} << 29) - 1;

#if defined(__SSE2__)
/** Lane-wise signed minimum (SSE2 has none for 32-bit lanes). */
inline __m128i
minEpi32(__m128i a, __m128i b)
{
    const __m128i a_gt = _mm_cmpgt_epi32(a, b);
    return _mm_xor_si128(a, _mm_and_si128(_mm_xor_si128(a, b), a_gt));
}
#endif

/** The way of the smallest stamp among the ways in @p cand (nonzero). */
inline unsigned
oldestWay(const std::uint32_t* stamps, unsigned cand)
{
#if defined(__SSE2__)
    const __m128i* s = reinterpret_cast<const __m128i*>(stamps);
    __m128i v[4];
    for (int q = 0; q < 4; ++q)
        v[q] = _mm_load_si128(s + q);
    if (cand != 0xffff) {
        // Lift the ways outside @p cand to INT_MAX.
        const __m128i lane_bits = _mm_setr_epi32(1, 2, 4, 8);
        for (int q = 0; q < 4; ++q) {
            const __m128i in = _mm_and_si128(
                _mm_set1_epi32(static_cast<int>(cand >> (4 * q))),
                lane_bits);
            const __m128i out =
                _mm_cmpeq_epi32(in, _mm_setzero_si128());
            v[q] = _mm_or_si128(v[q], _mm_srli_epi32(out, 1));
        }
    }
    __m128i m = minEpi32(minEpi32(v[0], v[1]), minEpi32(v[2], v[3]));
    m = minEpi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = minEpi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    const __m128i lo = _mm_packs_epi32(_mm_cmpeq_epi32(v[0], m),
                                       _mm_cmpeq_epi32(v[1], m));
    const __m128i hi = _mm_packs_epi32(_mm_cmpeq_epi32(v[2], m),
                                       _mm_cmpeq_epi32(v[3], m));
    const unsigned at = static_cast<unsigned>(
                            _mm_movemask_epi8(_mm_packs_epi16(lo, hi))) &
                        cand;
    return static_cast<unsigned>(std::countr_zero(at));
#else
    unsigned best = static_cast<unsigned>(std::countr_zero(cand));
    for (unsigned w = best + 1; w < 16; ++w) {
        if ((cand >> w & 1u) != 0 && stamps[w] < stamps[best])
            best = w;
    }
    return best;
#endif
}

/** Sets per slice of @p p's LLC, or 0 if a board would reject it. */
std::uint32_t
sliceSets(const DragonheadParams& p)
{
    const CacheParams& llc = p.llc;
    if (p.nSlices == 0 || !isPowerOf2(p.nSlices) ||
        llc.size % p.nSlices != 0 || llc.repl != ReplPolicy::LRU ||
        llc.assoc == 0 || llc.assoc > 16 || llc.lineSize < 8 ||
        !isPowerOf2(llc.lineSize))
        return 0;
    const std::uint64_t slice = llc.size / p.nSlices;
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(llc.lineSize) * llc.assoc;
    if (slice % set_bytes != 0)
        return 0;
    const std::uint64_t sets = slice / set_bytes;
    if (sets == 0 || sets > std::numeric_limits<std::uint32_t>::max() ||
        !isPowerOf2(sets))
        return 0;
    return static_cast<std::uint32_t>(sets);
}

} // namespace

/** One capacity: its set blocks, miss-side counters, CB and view. */
class NestedLlc::Level : public LlcView
{
  public:
    Level(const NestedLlc& owner, unsigned index,
          const DragonheadParams& params)
        : owner(owner), index(index), config(params),
          setMask(static_cast<Addr>(sliceSets(params)) * params.nSlices -
                  1),
          storage((setMask + 1) * sizeof(SetBlock)), cb(labeledCb(params))
    {
        cb.attachCounters([this](std::uint64_t& accesses,
                                 std::uint64_t& misses) {
            for (unsigned i = 0; i < nSlices(); ++i) {
                accesses += this->owner.sliceAccesses_[i].accesses;
                misses += sliceMisses(i).misses;
            }
        });
    }

    const SliceMisses&
    sliceMisses(unsigned i) const
    {
        return owner.misses_[index * owner.nSlices_ + i];
    }

    const DragonheadParams& params() const override { return config; }
    unsigned nSlices() const override { return owner.nSlices_; }

    CacheStats
    sliceStats(unsigned i) const override
    {
        panic_if(i >= nSlices(), "slice index %u out of range", i);
        const SliceAccesses& a = owner.sliceAccesses_[i];
        const SliceMisses& m = sliceMisses(i);
        CacheStats s;
        s.accesses = a.accesses;
        s.reads = a.reads;
        s.writes = a.writes;
        s.misses = m.misses;
        s.readMisses = m.readMisses;
        s.writeMisses = m.writeMisses;
        s.evictions = m.evictions;
        s.writebacks = m.writebacks;
        return s;
    }

    CoreCounters
    sliceCoreCounters(unsigned i, CoreId core) const override
    {
        panic_if(i >= nSlices(), "slice index %u out of range", i);
        panic_if(core >= owner.maxCores_, "CC%u: core %u out of range", i,
                 core);
        const std::size_t row =
            static_cast<std::size_t>(i) * owner.maxCores_ + core;
        const std::size_t level_rows =
            static_cast<std::size_t>(owner.nSlices_) * owner.maxCores_;
        return {owner.coreAccesses_[row],
                owner.coreMisses_[index * level_rows + row]};
    }

    const ControlBlock& controlBlock() const override { return cb; }

    void
    reset()
    {
        storage.clear();
        cb.reset();
    }

    SetBlock*
    sets()
    {
        return static_cast<SetBlock*>(storage.data());
    }

    const NestedLlc& owner;
    /** Position among the capacities, smallest first. */
    const unsigned index;
    const DragonheadParams config;
    /** Set index over the whole line number (slice bits included). */
    const Addr setMask;
    ZeroedBuffer storage;
    ControlBlock cb;
};

bool
NestedLlc::nests(const std::vector<DragonheadParams>& configs)
{
    if (configs.size() < 2 || configs.size() > maxLevels)
        return false;
    const DragonheadParams& a = configs.front();
    std::vector<std::uint64_t> sizes;
    for (const DragonheadParams& p : configs) {
        if (sliceSets(p) == 0 ||
            p.partitioning != LlcPartitioning::Interleaved ||
            p.nSlices != a.nSlices || p.maxCores != a.maxCores ||
            p.maxCores == 0 || p.llc.lineSize != a.llc.lineSize ||
            p.llc.assoc != a.llc.assoc ||
            p.cb.samplePeriodUs != a.cb.samplePeriodUs ||
            p.cb.coreFreqGhz != a.cb.coreFreqGhz)
            return false;
        sizes.push_back(p.llc.size);
    }
    std::sort(sizes.begin(), sizes.end());
    return std::adjacent_find(sizes.begin(), sizes.end()) == sizes.end();
}

NestedLlc::NestedLlc(const std::vector<DragonheadParams>& configs)
{
    fatal_if(!nests(configs),
             "NestedLlc needs two or more nesting LLC configurations");
    const DragonheadParams& a = configs.front();
    nSlices_ = a.nSlices;
    maxCores_ = a.maxCores;
    lineBits_ = floorLog2(a.llc.lineSize);
    sliceMask_ = nSlices_ - 1;
    wayMask_ = (std::uint32_t{1} << a.llc.assoc) - 1;

    std::vector<unsigned> order(configs.size());
    for (unsigned i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](unsigned x, unsigned y) {
        return configs[x].llc.size < configs[y].llc.size;
    });
    byConfig_.resize(configs.size());
    for (unsigned i : order) {
        levels_.push_back(std::make_unique<Level>(
            *this, static_cast<unsigned>(levels_.size()), configs[i]));
        byConfig_[i] = levels_.back().get();
    }

    nLevels_ = static_cast<unsigned>(levels_.size());
    for (unsigned k = 0; k < nLevels_; ++k) {
        sets_[k] = levels_[k]->sets();
        setMask_[k] = levels_[k]->setMask;
    }
    tagShift_ = static_cast<unsigned>(std::popcount(setMask_[0]));
    const std::size_t rows = static_cast<std::size_t>(nSlices_) * maxCores_;
    sliceAccesses_.resize(nSlices_);
    coreAccesses_.resize(rows);
    misses_.resize(static_cast<std::size_t>(nLevels_) * nSlices_);
    coreMisses_.resize(nLevels_ * rows);
}

NestedLlc::~NestedLlc() = default;

void
NestedLlc::observe(const BusTransaction& txn)
{
    CoreId core = 0;
    msg::Message m{};
    switch (af_.process(txn, core, m)) {
      case FilterAction::Dropped:
        return;
      case FilterAction::Consumed:
        for (auto& level : levels_)
            level->cb.onMessage(m);
        return;
      case FilterAction::Forward:
        break;
    }
    access(txn.addr, txn.kind == TxnKind::WriteLine, core);
}

void
NestedLlc::observeBatch(const BusTransaction* txns, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (i + prefetchDistance < n) {
            const BusTransaction& ahead = txns[i + prefetchDistance];
            if (ahead.kind != TxnKind::Message) {
                // As deep as the last access went: one capacity while
                // lines hit small, all of them on a streaming miss run.
                const Addr line = ahead.addr >> lineBits_;
                const unsigned depth = std::min(lastDepth_ + 1, nLevels_);
                for (unsigned k = 0; k < depth; ++k) {
                    const char* block = reinterpret_cast<const char*>(
                        sets_[k] + (line & setMask_[k]));
                    __builtin_prefetch(block, 1);
                    __builtin_prefetch(block + 64, 1);
                }
            }
        }
        NestedLlc::observe(txns[i]);
    }
}

void
NestedLlc::access(Addr addr, bool write, CoreId core)
{
    const Addr line = addr >> lineBits_;
    const Addr tag = line >> tagShift_;
    // As on the boards: guest footprints keep tags far below 32 bits.
    if (tag >= std::numeric_limits<std::uint32_t>::max()) [[unlikely]]
        panic("%s: address %#llx has a tag wider than 32 bits",
              levels_[0]->config.llc.name.c_str(),
              static_cast<unsigned long long>(addr));
    const auto key = static_cast<std::uint32_t>(tag + 1);
    const auto slice = static_cast<unsigned>(line & sliceMask_);

    SliceAccesses& sa = sliceAccesses_[slice];
    ++sa.accesses;
    if (write)
        ++sa.writes;
    else
        ++sa.reads;
    const bool counted_core = core < maxCores_;
    const std::size_t row =
        static_cast<std::size_t>(slice) * maxCores_ + core;
    if (counted_core)
        ++coreAccesses_[row];

    if (clock_ == clockLimit) [[unlikely]]
        renumberStamps();
    const std::uint32_t now = ++clock_ << 2;
    const std::uint32_t wbit = write ? dirtyBit : 0;

    unsigned h = 0;
    unsigned hit = 0;
    for (; h < nLevels_; ++h) {
        hit = matchTags16(sets_[h][line & setMask_[h]].tags, key);
        if (hit != 0)
            break;
    }
    lastDepth_ = h;
    if (h == 0) {
        std::uint32_t& stamp =
            sets_[0][line & setMask_[0]].stamps[std::countr_zero(hit)];
        stamp = now | (stamp & dirtyBit) | wbit | newerBit;
        return;
    }

    // Choose every capacity's way first and install L afterwards: the
    // held-below check then reads the c(k-1) block as it was (minus its
    // victim, whose way is masked off) instead of stalling on the
    // narrow stores of L's install.
    unsigned ways[maxLevels];
    const std::size_t level_rows =
        static_cast<std::size_t>(nSlices_) * maxCores_;
    for (unsigned k = 0; k < h; ++k) {
        SliceMisses& sm = misses_[k * nSlices_ + slice];
        ++sm.misses;
        if (write)
            ++sm.writeMisses;
        else
            ++sm.readMisses;
        if (counted_core)
            ++coreMisses_[k * level_rows + row];

        SetBlock& set = sets_[k][line & setMask_[k]];
        const unsigned free = matchTags16(set.tags, 0) & wayMask_;
        unsigned way;
        if (free != 0) {
            way = static_cast<unsigned>(std::countr_zero(free));
        } else {
            unsigned cand = wayMask_;
            way = oldestWay(set.stamps, cand);
            if (k > 0) {
                // A line the c(k-1) block holds is more recent than the
                // c(k) stamp says; skip it (see the file comment).
                const SetBlock& below = sets_[k - 1][line & setMask_[k - 1]];
                const unsigned gone = ~(1u << ways[k - 1]);
                while ((matchTags16(below.tags, set.tags[way]) & gone) != 0) {
                    cand &= ~(1u << way);
                    panic_if(cand == 0, "nested LLC: no victim at %s",
                             levels_[k]->config.llc.name.c_str());
                    way = oldestWay(set.stamps, cand);
                }
            }
            const std::uint32_t victim = set.stamps[way];
            ++sm.evictions;
            if ((victim & dirtyBit) != 0)
                ++sm.writebacks;
            if ((victim & newerBit) != 0 && k + 1 < nLevels_)
                writeUp(k, line, set.tags[way], victim);
        }
        ways[k] = way;
    }
    for (unsigned k = 0; k < h; ++k) {
        SetBlock& set = sets_[k][line & setMask_[k]];
        set.tags[ways[k]] = key;
        set.stamps[ways[k]] =
            now | wbit | (k + 1 == h && h < nLevels_ ? newerBit : 0);
    }
}

void
NestedLlc::writeUp(unsigned k, Addr line, std::uint32_t key,
                   std::uint32_t stamp)
{
    // Every line of a c(k) block shares the bits below the smallest
    // capacity's tag, so the victim's line is its tag over those bits.
    const Addr low = line & ((Addr{1} << tagShift_) - 1);
    const Addr victim_line = (static_cast<Addr>(key - 1) << tagShift_) | low;
    SetBlock& up = sets_[k + 1][victim_line & setMask_[k + 1]];
    const unsigned held = matchTags16(up.tags, key);
    panic_if(held == 0, "nested LLC: inclusion broken at %s",
             levels_[k + 1]->config.llc.name.c_str());
    std::uint32_t& dst = up.stamps[std::countr_zero(held)];
    dst = (stamp & ~flagBits) | ((stamp | dst) & dirtyBit) | newerBit;
}

void
NestedLlc::renumberStamps()
{
    std::vector<std::uint32_t> seen;
    for (auto& level : levels_) {
        const SetBlock* sets = level->sets();
        for (Addr s = 0; s <= level->setMask; ++s) {
            for (unsigned w = 0; w < 16; ++w) {
                if (sets[s].tags[w] != 0)
                    seen.push_back(sets[s].stamps[w] >> 2);
            }
        }
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (auto& level : levels_) {
        SetBlock* sets = level->sets();
        for (Addr s = 0; s <= level->setMask; ++s) {
            for (unsigned w = 0; w < 16; ++w) {
                if (sets[s].tags[w] == 0)
                    continue;
                std::uint32_t& stamp = sets[s].stamps[w];
                const auto rank = static_cast<std::uint32_t>(
                    std::lower_bound(seen.begin(), seen.end(),
                                     stamp >> 2) -
                    seen.begin());
                stamp = (rank + 1) << 2 | (stamp & flagBits);
            }
        }
    }
    clock_ = static_cast<std::uint32_t>(seen.size());
}

void
NestedLlc::reset()
{
    af_.reset();
    for (auto& level : levels_)
        level->reset();
    std::fill(sliceAccesses_.begin(), sliceAccesses_.end(),
              SliceAccesses{});
    std::fill(coreAccesses_.begin(), coreAccesses_.end(), 0);
    std::fill(misses_.begin(), misses_.end(), SliceMisses{});
    std::fill(coreMisses_.begin(), coreMisses_.end(), 0);
    clock_ = 0;
    lastDepth_ = 0;
}

unsigned
NestedLlc::nConfigs() const
{
    return static_cast<unsigned>(byConfig_.size());
}

const LlcView&
NestedLlc::config(unsigned i) const
{
    panic_if(i >= byConfig_.size(), "configuration index %u out of range",
             i);
    return *byConfig_[i];
}

std::vector<std::unique_ptr<LlcEmulator>>
makeLlcEmulators(const std::vector<DragonheadParams>& configs)
{
    std::vector<std::unique_ptr<LlcEmulator>> units;
    if (NestedLlc::nests(configs)) {
        units.push_back(std::make_unique<NestedLlc>(configs));
        return units;
    }
    for (const DragonheadParams& p : configs)
        units.push_back(std::make_unique<Dragonhead>(p));
    return units;
}

} // namespace cosim
