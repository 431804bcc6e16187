/**
 * @file
 * 16-way tag match shared by the LLC set stores (CacheController and
 * NestedLlc): one SSE2 compare over a set block's 32-bit tags.
 */

#ifndef COSIM_DRAGONHEAD_TAG_MATCH_HH
#define COSIM_DRAGONHEAD_TAG_MATCH_HH

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <cstdint>

namespace cosim {

/** Bit w set iff tags[w] == @p tag, over 16 16-byte-aligned tags. */
inline unsigned
matchTags16(const std::uint32_t* tags, std::uint32_t tag)
{
#if defined(__SSE2__)
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    const __m128i* t = reinterpret_cast<const __m128i*>(tags);
    const __m128i lo =
        _mm_packs_epi32(_mm_cmpeq_epi32(_mm_load_si128(t), key),
                        _mm_cmpeq_epi32(_mm_load_si128(t + 1), key));
    const __m128i hi =
        _mm_packs_epi32(_mm_cmpeq_epi32(_mm_load_si128(t + 2), key),
                        _mm_cmpeq_epi32(_mm_load_si128(t + 3), key));
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
#else
    unsigned m = 0;
    for (unsigned w = 0; w < 16; ++w)
        m |= static_cast<unsigned>(tags[w] == tag) << w;
    return m;
#endif
}

} // namespace cosim

#endif // COSIM_DRAGONHEAD_TAG_MATCH_HH
