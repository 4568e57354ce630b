/**
 * @file
 * Unit tests for the systolic-array timing model and the
 * energy/power/area model.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"
#include "engine/systolic.hh"

namespace sgcn
{
namespace
{

TEST(Systolic, SingleTileFormula)
{
    SystolicArray array({32, 32});
    const GemmCost cost = array.gemm(32, 256, 32);
    EXPECT_EQ(cost.tiles, 1u);
    // OS dataflow: K + rows + cols - 2.
    EXPECT_EQ(cost.cycles, 256u + 32 + 32 - 2);
    EXPECT_EQ(cost.macs, 32u * 256 * 32);
}

TEST(Systolic, TileCountRoundsUp)
{
    SystolicArray array({32, 32});
    const GemmCost cost = array.gemm(33, 16, 65);
    EXPECT_EQ(cost.tiles, 2u * 3u);
}

TEST(Systolic, ZeroSkipCompressesK)
{
    SystolicArray array({32, 32});
    const GemmCost dense = array.gemm(64, 256, 64);
    const GemmCost skipped = array.gemm(64, 256, 64, 0.5);
    EXPECT_LT(skipped.cycles, dense.cycles);
    EXPECT_NEAR(static_cast<double>(skipped.macs),
                static_cast<double>(dense.macs) * 0.5,
                static_cast<double>(dense.macs) * 0.01);
}

TEST(Systolic, EmptyGemm)
{
    SystolicArray array({32, 32});
    EXPECT_EQ(array.gemm(0, 256, 64).cycles, 0u);
    EXPECT_EQ(array.gemm(10, 0, 64).macs, 0u);
}

TEST(Systolic, MoreWorkMoreCycles)
{
    SystolicArray array({32, 32});
    EXPECT_GT(array.gemm(512, 256, 256).cycles,
              array.gemm(256, 256, 256).cycles);
}

// ---------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------

TEST(Energy, DynamicProportionalToCounts)
{
    EnergyModel model;
    RunCounts base{1000, 1000, 1000};
    RunCounts doubled{2000, 2000, 2000};
    const EnergyBreakdown a = model.dynamicEnergy(base, 512.0);
    const EnergyBreakdown b = model.dynamicEnergy(doubled, 512.0);
    EXPECT_NEAR(b.total(), 2.0 * a.total(), 1e-12);
}

TEST(Energy, DramDominatesAtGcnRatios)
{
    // The paper's Fig. 13: DRAM is the largest component for these
    // memory-bound workloads. A typical layer's counts: each DRAM
    // line implies roughly one cache miss plus a few hits, and a few
    // dozen MACs.
    EnergyModel model;
    RunCounts counts;
    counts.dramLines = 1'000'000;
    counts.cacheAccesses = 3'000'000;
    counts.macs = 50'000'000;
    const EnergyBreakdown energy = model.dynamicEnergy(counts, 512.0);
    EXPECT_GT(energy.dramJ, energy.cacheJ);
    EXPECT_GT(energy.dramJ, energy.computeJ);
}

TEST(Energy, Hbm1CostsMorePerLine)
{
    EnergyModel hbm2({}, false);
    EnergyModel hbm1({}, true);
    RunCounts counts;
    counts.dramLines = 1000;
    EXPECT_GT(hbm1.dynamicEnergy(counts, 512.0).dramJ,
              hbm2.dynamicEnergy(counts, 512.0).dramJ);
}

TEST(Energy, CacheEnergyScalesWithCapacity)
{
    EnergyModel model;
    RunCounts counts;
    counts.cacheAccesses = 1000;
    EXPECT_GT(model.dynamicEnergy(counts, 4096.0).cacheJ,
              model.dynamicEnergy(counts, 256.0).cacheJ);
}

TEST(Energy, TdpInPaperBand)
{
    // SVI-B: peak power between HyGCN's 5.94 W and GCNAX's 7.16 W.
    EnergyModel model;
    AccelDescriptor sgcn{4.05, 384.0, 512.0};
    AccelDescriptor gcnax{3.95, 768.0, 512.0};
    AccelDescriptor hygcn{3.10, 256.0, 512.0};
    AccelDescriptor awb{4.25, 512.0, 512.0};
    const double tdp_sgcn = model.tdpWatts(sgcn);
    const double tdp_gcnax = model.tdpWatts(gcnax);
    const double tdp_hygcn = model.tdpWatts(hygcn);
    const double tdp_awb = model.tdpWatts(awb);

    for (double tdp : {tdp_sgcn, tdp_gcnax, tdp_hygcn, tdp_awb}) {
        EXPECT_GT(tdp, 5.0);
        EXPECT_LT(tdp, 8.0);
    }
    // Ordering: HyGCN lowest; SGCN below GCNAX and AWB-GCN.
    EXPECT_LT(tdp_hygcn, tdp_sgcn);
    EXPECT_LT(tdp_sgcn, tdp_gcnax);
    EXPECT_LT(tdp_sgcn, tdp_awb);
}

TEST(Energy, AreaMatchesPaperScale)
{
    // SVI-A: GCNAX 3.95 mm2 logic, SGCN +2.5%; the global cache adds
    // its SRAM on top for both.
    EnergyModel model;
    const double sgcn = model.areaMm2({4.05, 384.0, 512.0});
    const double gcnax = model.areaMm2({3.95, 768.0, 512.0});
    EXPECT_NEAR(sgcn / gcnax, 1.025, 0.02);
    EXPECT_GT(sgcn, 4.05);
    EXPECT_LT(sgcn, 5.5);
}

} // namespace
} // namespace sgcn
