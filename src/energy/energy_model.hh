/**
 * @file
 * Energy, peak-power (TDP), and area model.
 *
 * Substitutes for the paper's Synopsys DC + CACTI 6.5 flow
 * (SVI-A): event counts from the simulator are multiplied by
 * per-event energies, and TDP/area come from architectural
 * parameters. Constants are taken from public sources (Horowitz
 * ISSCC'14 arithmetic energies, CACTI-class SRAM access energy, HBM2
 * ~3.9 pJ/bit) and calibrated so the absolute numbers land in the
 * paper's reported bands (TDP 5.9-7.2 W, GCNAX area 3.95 mm2,
 * SGCN +2.5%); the relative Fig. 13 shape comes entirely from the
 * simulated event counts.
 */

#ifndef SGCN_ENERGY_ENERGY_MODEL_HH
#define SGCN_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

namespace sgcn
{

/** Per-event and per-capacity energy constants. */
struct EnergyConstants
{
    /** 32-bit fixed-point MAC at 32 nm (pJ). */
    double macPj = 0.45;

    /** 64B access to a 512 KB 16-way SRAM (pJ); scales with
     *  sqrt(capacity) per CACTI trends. */
    double cacheLinePjAt512K = 150.0;

    /** 64B HBM2 line transfer: ~3.9 pJ/bit. */
    double dramLinePjHbm2 = 2000.0;

    /** 64B HBM1 line transfer: ~5 pJ/bit. */
    double dramLinePjHbm1 = 2560.0;

    /** Peak logic power density (W / mm2) at 1 GHz, 32 nm. */
    double logicWattsPerMm2 = 1.05;

    /** Peak power of on-chip SRAM (W per MB). */
    double sramWattsPerMb = 0.65;

    /** HBM interface + controller peak power (W). */
    double dramInterfaceWatts = 2.0;

    /** SRAM area (mm2 per MB) at 32 nm. */
    double sramMm2PerMb = 1.4;
};

/**
 * Architectural descriptor used for TDP and area; personalities fill
 * this from their configuration. Logic areas for the published
 * designs come from SVI-A (GCNAX 3.95 mm2 incl. buffers, SGCN
 * 4.05 mm2, AWB-GCN 4.25 mm2).
 */
struct AccelDescriptor
{
    /** Synthesized logic + private buffer area (mm2), excluding the
     *  shared global cache. */
    double logicAreaMm2 = 3.5;

    /** Private (non-cache) buffer capacity, KB. */
    double privateBufferKb = 384.0;

    /** Shared global cache capacity, KB. */
    double cacheKb = 512.0;
};

/** Event counts of a simulated execution. */
struct RunCounts
{
    /** Multiply-accumulate operations (aggregation + combination). */
    std::uint64_t macs = 0;

    /** Cache accesses (hits + misses). */
    std::uint64_t cacheAccesses = 0;

    /** Off-chip DRAM lines moved (either direction). */
    std::uint64_t dramLines = 0;
};

/** Dynamic energy split the way Fig. 13 reports it. */
struct EnergyBreakdown
{
    double computeJ = 0.0;
    double cacheJ = 0.0;
    double dramJ = 0.0;

    double total() const { return computeJ + cacheJ + dramJ; }
};

/** The energy/power/area model. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyConstants &constants = {},
                         bool hbm1 = false)
        : k(constants), useHbm1(hbm1)
    {
    }

    /** Dynamic energy of a run with the given cache capacity. */
    EnergyBreakdown dynamicEnergy(const RunCounts &counts,
                                  double cache_kb) const;

    /** Peak power (TDP) of an accelerator. */
    double tdpWatts(const AccelDescriptor &desc) const;

    /** Total die area (logic + buffers + global cache). */
    double areaMm2(const AccelDescriptor &desc) const;

    const EnergyConstants &constants() const { return k; }

  private:
    EnergyConstants k;
    bool useHbm1;
};

} // namespace sgcn

#endif // SGCN_ENERGY_ENERGY_MODEL_HH
