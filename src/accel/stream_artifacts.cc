#include "accel/stream_artifacts.hh"

#include <algorithm>

#include "core/beicsr.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace sgcn
{

StreamArtifactCache &
StreamArtifactCache::instance()
{
    static StreamArtifactCache cache;
    return cache;
}

std::shared_ptr<const CsrGraph>
StreamArtifactCache::canonicalGraph(const CsrGraph &graph)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return graphs.lookup(
        GraphKey{lo, hi},
        [&] { return std::make_shared<const CsrGraph>(graph); },
        [](const CsrGraph &g) { return g.footprintBytes(); });
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::maskFor(const MaskKey &key)
{
    auto mask = masks.lookup(
        key,
        [&]() -> std::shared_ptr<const FeatureMask> {
            const auto kind = static_cast<MaskKind>(std::get<0>(key));
            const std::uint32_t rows = std::get<1>(key);
            const std::uint32_t cols = std::get<2>(key);
            const double sparsity =
                std::bit_cast<double>(std::get<3>(key));
            const std::uint64_t seed = std::get<4>(key);
            switch (kind) {
              case MaskKind::Random: {
                Rng rng(seed);
                return std::make_shared<const FeatureMask>(
                    FeatureMask::random(rows, cols, sparsity, rng));
              }
              case MaskKind::OneHot: {
                Rng rng(seed);
                return std::make_shared<const FeatureMask>(
                    FeatureMask::oneHot(rows, cols, rng));
              }
              case MaskKind::Full:
              default:
                return std::make_shared<const FeatureMask>(
                    FeatureMask::full(rows, cols));
            }
        },
        [](const FeatureMask &m) { return m.footprintBytes(); });
    return MaskHandle{std::move(mask), key};
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::randomMask(std::uint32_t rows, std::uint32_t cols,
                                double sparsity, std::uint64_t seed)
{
    return maskFor(
        MaskKey{static_cast<std::uint8_t>(MaskKind::Random), rows, cols,
                std::bit_cast<std::uint64_t>(sparsity), seed});
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::oneHotMask(std::uint32_t rows, std::uint32_t cols,
                                std::uint64_t seed)
{
    return maskFor(
        MaskKey{static_cast<std::uint8_t>(MaskKind::OneHot), rows, cols,
                0, seed});
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::fullMask(std::uint32_t rows, std::uint32_t cols)
{
    return maskFor(MaskKey{static_cast<std::uint8_t>(MaskKind::Full),
                           rows, cols, 0, 0});
}

std::shared_ptr<const FeatureLayout>
StreamArtifactCache::preparedLayout(FormatKind format,
                                    std::uint32_t width,
                                    std::uint32_t slice_width,
                                    double expected_density, Addr base,
                                    const MaskHandle &mask)
{
    const LayoutKey key{static_cast<std::uint8_t>(format), width,
                        slice_width,
                        std::bit_cast<std::uint64_t>(expected_density),
                        base, mask.key};
    auto holder = layouts.lookup(
        key,
        [&]() -> std::shared_ptr<const PreparedLayout> {
            auto prepared = std::make_shared<PreparedLayout>();
            prepared->mask = mask.mask;
            prepared->layout = makeLayout(format, width, slice_width);
            prepared->layout->setExpectedDensity(expected_density);
            prepared->layout->prepare(*prepared->mask, base);
            return prepared;
        },
        [](const PreparedLayout &p) {
            // The mask's bytes are accounted by the mask cache; only
            // the layout object (and its index vectors) are new.
            return p.layout->footprintBytes();
        });
    return std::shared_ptr<const FeatureLayout>(holder,
                                                holder->layout.get());
}

std::shared_ptr<const TiledGraphView>
StreamArtifactCache::tiledView(
    const std::shared_ptr<const CsrGraph> &graph, VertexId dst_span,
    VertexId src_span)
{
    const auto [lo, hi] = graph->contentFingerprint();
    auto holder = views.lookup(
        ViewKey{lo, hi, dst_span, src_span},
        [&] {
            return std::make_shared<const TiledView>(graph, dst_span,
                                                     src_span);
        },
        [](const TiledView &tv) { return tv.view.footprintBytes(); });
    return std::shared_ptr<const TiledGraphView>(holder, &holder->view);
}

std::shared_ptr<const GraphPartition>
StreamArtifactCache::partition(const CsrGraph &graph, unsigned chips,
                               PartitionPolicy policy)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return partitions.lookup(
        PartitionKey{lo, hi, chips,
                     static_cast<std::uint8_t>(policy)},
        [&] {
            // A one-chip shard aliases the canonical graph; wider
            // partitions copy their subgraphs and only borrow @p graph
            // (a non-owning handle) while they are built.
            auto parent =
                chips == 1 ? canonicalGraph(graph)
                           : std::shared_ptr<const CsrGraph>(
                                 std::shared_ptr<const CsrGraph>(), &graph);
            return std::make_shared<const GraphPartition>(
                std::move(parent), chips, policy);
        },
        [](const GraphPartition &p) { return p.footprintBytes(); });
}

namespace
{

/** splitMix64 mixing step for derived-key digests. */
std::uint64_t
mix64(std::uint64_t state)
{
    state += 0x9e3779b97f4a7c15ULL;
    state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ULL;
    state = (state ^ (state >> 27)) * 0x94d049bb133111ebULL;
    return state ^ (state >> 31);
}

} // namespace

StreamArtifactCache::MaskHandle
StreamArtifactCache::chipMask(const MaskHandle &parent,
                              const GraphPartition &partition,
                              unsigned chip, bool include_halo)
{
    SGCN_ASSERT(parent, "chip mask needs a parent mask");
    SGCN_ASSERT(chip < partition.numChips(), "chip out of range");
    const ChipShard &shard = partition.shard(chip);
    if (shard.ownedRows() == partition.numVertices())
        return parent; // the whole graph, no halo: nothing to gather
    const auto total = static_cast<std::uint32_t>(shard.ownedRows() +
                                                  shard.haloRows());

    // Digest the parent key and the partition identity into the
    // sparsity/seed slots: two chained splitMix64 streams over the
    // same inputs from different initial states, so distinct inputs
    // collide only if both 64-bit streams collide.
    const auto [fp_lo, fp_hi] = partition.parentFingerprint();
    const std::uint64_t inputs[] = {
        static_cast<std::uint64_t>(std::get<0>(parent.key)),
        std::get<1>(parent.key),
        std::get<2>(parent.key),
        std::get<3>(parent.key),
        std::get<4>(parent.key),
        fp_lo,
        fp_hi,
        static_cast<std::uint64_t>(partition.numChips()),
        static_cast<std::uint64_t>(partition.policy()),
        chip,
        include_halo ? 1u : 0u,
    };
    std::uint64_t lo = 0x243f6a8885a308d3ULL;
    std::uint64_t hi = 0x13198a2e03707344ULL;
    for (std::uint64_t value : inputs) {
        lo = mix64(lo ^ value);
        hi = mix64(hi + value);
    }

    const MaskKey key{static_cast<std::uint8_t>(MaskKind::ChipGather),
                      total, std::get<2>(parent.key), lo, hi};
    auto mask = masks.lookup(
        key,
        [&]() -> std::shared_ptr<const FeatureMask> {
            std::vector<VertexId> rows;
            rows.reserve(include_halo ? total : shard.ownedRows());
            for (VertexId v = shard.begin; v < shard.end; ++v)
                rows.push_back(v);
            if (include_halo) {
                rows.insert(rows.end(), shard.halo.begin(),
                            shard.halo.end());
            }
            return std::make_shared<const FeatureMask>(
                FeatureMask::gatherRows(*parent.mask, rows, total));
        },
        [](const FeatureMask &m) { return m.footprintBytes(); });
    return MaskHandle{std::move(mask), key};
}

std::shared_ptr<const std::vector<VertexId>>
StreamArtifactCache::degreeOrder(const CsrGraph &graph)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return degreeOrders.lookup(
        GraphKey{lo, hi},
        [&] {
            return std::make_shared<const std::vector<VertexId>>(
                graph.verticesByDegree());
        },
        [](const std::vector<VertexId> &order) {
            return order.size() * sizeof(VertexId);
        });
}

namespace
{

/** Distinct neighbours hit by @p fanout draws with replacement from
 *  a degree-@p degree vertex, under a per-vertex deterministic RNG. */
unsigned
distinctDraws(unsigned degree, unsigned fanout, Rng &rng)
{
    // Small fixed scratch: fanout is a sample size (tens), so a
    // sort-and-count over the drawn indices beats a degree-sized
    // bitmap for every realistic configuration.
    std::vector<std::uint32_t> draws(fanout);
    for (auto &draw : draws)
        draw = static_cast<std::uint32_t>(rng.uniformInt(degree));
    std::sort(draws.begin(), draws.end());
    return static_cast<unsigned>(
        std::unique(draws.begin(), draws.end()) - draws.begin());
}

} // anonymous namespace

double
StreamArtifactCache::sageEdgeFraction(const CsrGraph &graph,
                                      unsigned fanout,
                                      std::uint64_t seed)
{
    const auto [lo, hi] = graph.contentFingerprint();
    auto fraction = sageFractions.lookup(
        SageKey{lo, hi, fanout, seed},
        [&] {
            double sampled = 0.0;
            for (VertexId v = 0; v < graph.numVertices(); ++v) {
                const unsigned degree =
                    static_cast<unsigned>(graph.degree(v));
                if (seed == 0 || degree <= fanout) {
                    sampled += std::min(degree, fanout);
                } else {
                    // Seeded draw-with-replacement: per-vertex RNG
                    // derived from (seed, v) so the estimate is
                    // independent of traversal order.
                    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL *
                                              (std::uint64_t{v} + 1));
                    Rng rng(Rng::splitMix64(x));
                    sampled += distinctDraws(degree, fanout, rng);
                }
            }
            return std::make_shared<const double>(
                sampled / static_cast<double>(graph.numEdges()));
        },
        [](const double &) { return sizeof(double); });
    return *fraction;
}

ArtifactStats
StreamArtifactCache::stats() const
{
    ArtifactStats merged;
    merged += graphs.stats();
    merged += masks.stats();
    merged += layouts.stats();
    merged += views.stats();
    merged += degreeOrders.stats();
    merged += sageFractions.stats();
    merged += partitions.stats();
    return merged;
}

void
StreamArtifactCache::clear()
{
    // Views and layouts co-own graphs and masks, so clearing them
    // first keeps no order dependence — shared_ptr handles released
    // by this clear free their memory as the last owner drops.
    views.clear();
    layouts.clear();
    degreeOrders.clear();
    sageFractions.clear();
    partitions.clear();
    masks.clear();
    graphs.clear();
}

} // namespace sgcn
