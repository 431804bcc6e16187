/**
 * @file
 * Zero-initialised host buffer for large lookup tables.
 *
 * Buffers of hugeThreshold bytes or more are anonymous mappings advised
 * with MADV_HUGEPAGE: the kernel zeroes pages on first touch, so there
 * is no initialisation loop, untouched regions cost no memory, and the
 * touched ones sit on 2 MB pages (fewer TLB misses for tables walked at
 * random). Smaller buffers are plain aligned allocations, where a huge
 * page would only round the footprint up.
 */

#ifndef COSIM_BASE_ZEROED_BUFFER_HH
#define COSIM_BASE_ZEROED_BUFFER_HH

#include <cstddef>

namespace cosim {

/** See file comment. */
class ZeroedBuffer
{
  public:
    /** Smallest buffer that is mapped rather than allocated. */
    static constexpr std::size_t hugeThreshold = std::size_t{2} << 20;
    /** Alignment of data() in either mode. */
    static constexpr std::size_t alignment = 128;

    explicit ZeroedBuffer(std::size_t bytes);
    ~ZeroedBuffer();

    ZeroedBuffer(const ZeroedBuffer&) = delete;
    ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;

    void* data() const { return data_; }
    std::size_t size() const { return bytes_; }
    /** True iff the buffer is an anonymous mapping. */
    bool mapped() const { return mapped_; }

    /** Zero every byte again; a mapping hands its pages back. */
    void clear();

  private:
    void* data_ = nullptr;
    std::size_t bytes_;
    bool mapped_;
};

} // namespace cosim

#endif // COSIM_BASE_ZEROED_BUFFER_HH
