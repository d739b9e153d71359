/**
 * @file
 * Replacement global operator new/delete for the benchmark binaries: a
 * relaxed counter on every allocation, so sim.allocs_per_firing counts
 * every heap allocation the simulator makes, coroutine frames included
 * (src/ defines no allocation operators of its own).
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void *
allocate(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(al);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, a, n ? n : 1) != 0)
        return nullptr;
    return p;
}

} // namespace

uint64_t
sarabench::allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    if (void *p = allocate(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = allocateAligned(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void *
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
