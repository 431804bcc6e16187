#include "dragonhead/cache_controller.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <bit>
#include <limits>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "dragonhead/tag_match.hh"

namespace cosim {

namespace {

/** Bit w set iff way w's age equals @p age. */
inline unsigned
matchAge(const std::uint8_t* ages, std::uint8_t age)
{
#if defined(__SSE2__)
    const __m128i a = _mm_load_si128(reinterpret_cast<const __m128i*>(ages));
    return static_cast<unsigned>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(a, _mm_set1_epi8(static_cast<char>(age)))));
#else
    unsigned m = 0;
    for (unsigned w = 0; w < CacheController::maxWays; ++w)
        m |= static_cast<unsigned>(ages[w] == age) << w;
    return m;
#endif
}

/**
 * Make @p way the most recent: every way younger than @p age ages by
 * one step and @p way becomes age 0. A fill into an invalid way passes
 * maxWays, so every valid way ages.
 */
inline void
promote(std::uint8_t* ages, unsigned way, std::uint8_t age)
{
#if defined(__SSE2__)
    __m128i* p = reinterpret_cast<__m128i*>(ages);
    const __m128i a = _mm_load_si128(p);
    const __m128i younger =
        _mm_cmplt_epi8(a, _mm_set1_epi8(static_cast<char>(age)));
    _mm_store_si128(p, _mm_sub_epi8(a, younger)); // younger lanes are -1
#else
    for (unsigned w = 0; w < CacheController::maxWays; ++w) {
        if (static_cast<std::int8_t>(ages[w]) <
            static_cast<std::int8_t>(age))
            ++ages[w];
    }
#endif
    ages[way] = 0;
}

/** @p p, after checking it is a geometry the slice store holds. */
const CacheParams&
validated(const CacheParams& p)
{
    fatal_if(p.repl != ReplPolicy::LRU,
             "%s: the LLC emulator is LRU-only, not %s", p.name.c_str(),
             toString(p.repl));
    fatal_if(p.assoc == 0 || p.assoc > CacheController::maxWays,
             "%s: associativity %u outside 1..%u", p.name.c_str(), p.assoc,
             CacheController::maxWays);
    fatal_if(p.lineSize < 8 || !isPowerOf2(p.lineSize),
             "%s: line size %u must be a power of two >= 8",
             p.name.c_str(), p.lineSize);
    fatal_if(p.size % (static_cast<std::uint64_t>(p.lineSize) * p.assoc) !=
                 0,
             "%s: size %llu is not divisible by lineSize*assoc",
             p.name.c_str(), static_cast<unsigned long long>(p.size));
    fatal_if(!isPowerOf2(p.sets()),
             "%s: set count %u must be a nonzero power of two",
             p.name.c_str(), p.sets());
    return p;
}

} // namespace

CacheController::CacheController(unsigned index,
                                 const CacheParams& slice_params,
                                 unsigned max_cores)
    : index_(index), params_(validated(slice_params)),
      lineBits_(floorLog2(params_.lineSize)),
      setBits_(floorLog2(params_.sets())), setMask_(params_.sets() - 1),
      wayMask_((std::uint32_t{1} << params_.assoc) - 1),
      storage_(static_cast<std::size_t>(params_.sets()) * sizeof(SetBlock)),
      sets_(static_cast<SetBlock*>(storage_.data())), perCore_(max_cores)
{
    static_assert(sizeof(SetBlock) == 128, "one set block per 128 bytes");
    fatal_if(max_cores == 0, "CC%u: need at least one core counter row",
             index);
}

bool
CacheController::handleDemand(Addr addr, bool write, CoreId core)
{
    const Addr line = addr >> lineBits_;
    SetBlock& set = sets_[line & setMask_];
    const Addr tag = line >> setBits_;
    // Guest data is bump-allocated upward from 256 MB and footprints
    // are hundreds of MB, so no tag comes near 32 bits.
    if (tag > std::numeric_limits<std::uint32_t>::max()) [[unlikely]]
        panic("%s: address %#llx has a tag wider than 32 bits",
              params_.name.c_str(), static_cast<unsigned long long>(addr));

    ++stats_.accesses;
    if (write)
        ++stats_.writes;
    else
        ++stats_.reads;

    const unsigned hits =
        matchTags16(set.tags, static_cast<std::uint32_t>(tag)) & set.valid;
    const unsigned wbit = write ? 1u : 0u;
    if (hits != 0) {
        const unsigned way = static_cast<unsigned>(std::countr_zero(hits));
        promote(set.ages, way, set.ages[way]);
        set.dirty = static_cast<std::uint16_t>(set.dirty | wbit << way);
    } else {
        ++stats_.misses;
        if (write)
            ++stats_.writeMisses;
        else
            ++stats_.readMisses;

        const unsigned free = ~set.valid & wayMask_;
        unsigned way;
        if (free != 0) {
            way = static_cast<unsigned>(std::countr_zero(free));
            promote(set.ages, way, maxWays);
            set.valid = static_cast<std::uint16_t>(set.valid | 1u << way);
        } else {
            // All ways valid: the oldest one, age assoc-1, is the victim.
            const std::uint8_t oldest =
                static_cast<std::uint8_t>(params_.assoc - 1);
            way = static_cast<unsigned>(
                std::countr_zero(matchAge(set.ages, oldest) & wayMask_));
            ++stats_.evictions;
            if ((set.dirty >> way & 1u) != 0)
                ++stats_.writebacks;
            promote(set.ages, way, oldest);
        }
        set.tags[way] = static_cast<std::uint32_t>(tag);
        set.dirty = static_cast<std::uint16_t>(
            (set.dirty & ~(1u << way)) | wbit << way);
    }

    if (core < perCore_.size()) {
        ++perCore_[core].accesses;
        if (hits == 0)
            ++perCore_[core].misses;
    }
    return hits != 0;
}

const CoreCounters&
CacheController::coreCounters(CoreId core) const
{
    panic_if(core >= perCore_.size(), "CC%u: core %u out of range", index_,
             core);
    return perCore_[core];
}

void
CacheController::reset()
{
    storage_.clear();
    stats_.reset();
    for (auto& row : perCore_)
        row = CoreCounters();
}

} // namespace cosim
