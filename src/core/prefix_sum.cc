#include "core/prefix_sum.hh"

#include <algorithm>

#include "sim/thread_pool.hh"

namespace sgcn
{

std::uint64_t
exclusivePrefixSum(std::vector<std::uint64_t> &counts, unsigned jobs)
{
    const std::size_t n = counts.size();
    const unsigned threads =
        static_cast<unsigned>(std::min<std::size_t>(resolveJobs(jobs),
                                                    n / (1 << 16)));
    if (threads <= 1) {
        std::uint64_t running = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t c = counts[i];
            counts[i] = running;
            running += c;
        }
        return running;
    }

    const std::size_t block = (n + threads - 1) / threads;
    std::vector<std::uint64_t> block_total(threads, 0);
    parallelFor(threads, threads, [&](std::size_t b) {
        const std::size_t begin = b * block;
        const std::size_t end = std::min(begin + block, n);
        std::uint64_t running = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t c = counts[i];
            counts[i] = running;
            running += c;
        }
        block_total[b] = running;
    });
    std::uint64_t total = 0;
    std::vector<std::uint64_t> block_base(threads, 0);
    for (unsigned b = 0; b < threads; ++b) {
        block_base[b] = total;
        total += block_total[b];
    }
    parallelFor(threads, threads, [&](std::size_t b) {
        const std::uint64_t base = block_base[b];
        if (base == 0)
            return;
        const std::size_t begin = b * block;
        const std::size_t end = std::min(begin + block, n);
        for (std::size_t i = begin; i < end; ++i)
            counts[i] += base;
    });
    return total;
}

std::vector<std::uint32_t>
PrefixSumUnit::reversedIndices(const std::uint8_t *bitmap,
                               std::uint32_t bits)
{
    std::vector<std::uint32_t> indices(bits, 0);
    std::uint32_t running = 0;
    for (std::uint32_t i = 0; i < bits; ++i) {
        indices[i] = running;
        if (bitmap[i / 8] & (1u << (i % 8)))
            ++running;
    }
    return indices;
}

std::uint32_t
PrefixSumUnit::popcount(const std::uint8_t *bitmap, std::uint32_t bits)
{
    std::uint32_t count = 0;
    for (std::uint32_t i = 0; i < bits; ++i) {
        if (bitmap[i / 8] & (1u << (i % 8)))
            ++count;
    }
    return count;
}

} // namespace sgcn
