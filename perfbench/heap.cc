#include "heap.hh"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap
{
namespace
{

std::atomic<std::size_t> live{0};
std::atomic<std::size_t> peak{0};

void
noteAlloc(void *p)
{
    const std::size_t now =
        live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
        malloc_usable_size(p);
    std::size_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
}

void
noteFree(void *p)
{
    live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

void *
allocate(std::size_t n, std::size_t align)
{
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p)
        noteAlloc(p);
    return p;
}

void
release(void *p) noexcept
{
    if (!p)
        return;
    noteFree(p);
    std::free(p);
}

} // namespace

std::size_t
liveBytes()
{
    return live.load(std::memory_order_relaxed);
}

std::size_t
peakBytes()
{
    return peak.load(std::memory_order_relaxed);
}

void
resetPeak()
{
    peak.store(live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

} // namespace perfbench::heap

namespace
{

void *
allocOrThrow(std::size_t n, std::size_t align)
{
    if (void *p = perfbench::heap::allocate(n, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The replaceable global allocation functions ([new.delete]); every other
// form of operator new and delete forwards to these.
void *operator new(std::size_t n) { return allocOrThrow(n, 0); }
void *operator new[](std::size_t n) { return allocOrThrow(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return allocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return allocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::heap::allocate(n, 0);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::heap::allocate(n, 0);
}
void operator delete(void *p) noexcept { perfbench::heap::release(p); }
void operator delete[](void *p) noexcept { perfbench::heap::release(p); }
void operator delete(void *p, std::size_t) noexcept
{
    perfbench::heap::release(p);
}
void operator delete[](void *p, std::size_t) noexcept
{
    perfbench::heap::release(p);
}
void operator delete(void *p, std::align_val_t) noexcept
{
    perfbench::heap::release(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    perfbench::heap::release(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    perfbench::heap::release(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    perfbench::heap::release(p);
}
