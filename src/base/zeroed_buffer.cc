#include "base/zeroed_buffer.hh"

#include <sys/mman.h>

#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace cosim {

ZeroedBuffer::ZeroedBuffer(std::size_t bytes)
    : bytes_(bytes), mapped_(bytes >= hugeThreshold)
{
    if (bytes == 0)
        return;
    if (mapped_) {
        data_ = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        fatal_if(data_ == MAP_FAILED, "cannot map %zu bytes", bytes);
        // Advisory: without transparent huge pages this is a no-op.
        ::madvise(data_, bytes, MADV_HUGEPAGE);
        return;
    }
    const std::size_t rounded =
        (bytes + alignment - 1) / alignment * alignment;
    data_ = std::aligned_alloc(alignment, rounded);
    fatal_if(data_ == nullptr, "cannot allocate %zu bytes", bytes);
    std::memset(data_, 0, rounded);
}

ZeroedBuffer::~ZeroedBuffer()
{
    if (data_ == nullptr)
        return;
    if (mapped_)
        ::munmap(data_, bytes_);
    else
        std::free(data_);
}

void
ZeroedBuffer::clear()
{
    if (data_ == nullptr)
        return;
    // A private anonymous page reads back as zeroes once dropped.
    if (mapped_)
        ::madvise(data_, bytes_, MADV_DONTNEED);
    else
        std::memset(data_, 0, bytes_);
}

} // namespace cosim
