/**
 * @file
 * Common feature-matrix layout interface.
 *
 * A FeatureLayout maps (vertex, slice) feature accesses to
 * cacheline-granular address runs, which is all the memory system
 * needs to model a format's off-chip behaviour (Fig. 3). Concrete
 * baseline formats live in this library; the paper's BEICSR variants
 * live in src/core.
 */

#ifndef SGCN_FORMATS_FORMAT_HH
#define SGCN_FORMATS_FORMAT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gcn/feature_matrix.hh"
#include "mem/access_plan.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Feature-matrix storage formats compared in Fig. 3. */
enum class FormatKind
{
    Dense,
    Csr,
    Coo,
    Bsr,
    BlockedEllpack,
    Beicsr,
    BeicsrNonSliced,
    BeicsrSplitBitmap, // ablation: bitmap in a separate array
};

/** Human-readable format name. */
const char *formatKindName(FormatKind kind);

/**
 * Abstract feature-matrix layout bound to a non-zero mask.
 *
 * Lifecycle: construct with the feature width (and unit slice width
 * for slicing-capable formats), then prepare() against a concrete
 * mask and base address once per layer, then query plans.
 */
class FeatureLayout
{
  public:
    FeatureLayout(std::uint32_t feature_width, std::uint32_t slice_width);
    virtual ~FeatureLayout() = default;

    /** Format identity. */
    virtual FormatKind kind() const = 0;

    /** Format display name. */
    const char *name() const { return formatKindName(kind()); }

    /** True if per-slice reads are supported (SV-B). */
    virtual bool supportsSlicing() const { return false; }

    /** True if rows live at fixed offsets so layer outputs can be
     *  written in parallel (SV-A "In-place Compression"); packed
     *  variable-length formats must serialize their writes. */
    virtual bool supportsParallelWrite() const { return true; }

    /** Bind the layout to a mask, starting at @p base. */
    virtual void prepare(const FeatureMask &mask, Addr base);

    /** Read plan for unit slice @p s of vertex @p v. For formats
     *  without slicing support, only s == 0 is valid and the plan
     *  covers the whole row. */
    virtual AccessPlan planSliceRead(VertexId v, unsigned s) const = 0;

    /** Read plan for the whole row of vertex @p v. */
    virtual AccessPlan planRowRead(VertexId v) const = 0;

    /** Write plan for the whole (compressed) row of vertex @p v. */
    virtual AccessPlan planRowWrite(VertexId v) const = 0;

    /** Feature values an aggregator consumes for (v, s): slice width
     *  for dense-like formats, non-zero count for compressed ones. */
    virtual std::uint32_t sliceValues(VertexId v, unsigned s) const = 0;

    /** Reserved storage footprint in bytes. */
    virtual std::uint64_t storageBytes() const = 0;

    /**
     * Static (offline) estimate of bytes fetched per vertex per
     * unit slice, used by offline tile sizing. Dense formats know
     * this exactly; compressed formats must assume the expected
     * density (set from the trained network's average sparsity).
     * Actual per-layer sparsity varies around that average, which is
     * exactly the working-set estimation problem SAC addresses
     * (SV-C).
     */
    virtual double staticSliceBytesEstimate() const = 0;

    /** Host-memory footprint of the layout object in bytes (owned
     *  index vectors included); used by the sweep artifact cache's
     *  byte accounting, not by the simulated address map. */
    virtual std::uint64_t
    footprintBytes() const
    {
        return sizeof(FeatureLayout);
    }

    /** Sum of planRowRead(v).totalLines() over every bound-mask row,
     *  memoized after the first call: the streaming fast paths read
     *  the whole matrix once (or once per strip) and only feed the
     *  stream-traffic counters, so the per-row plans collapse to
     *  this one total. Thread-safe (idempotent deterministic
     *  compute; concurrent first calls store the same value). */
    std::uint64_t totalRowReadLines() const;

    /**
     * planSliceRead() and sliceValues() for one (v, s), collapsed
     * into a 16-byte entry. Almost every slice plan is a single
     * contiguous run; the rare multi-run plan is marked with
     * kMultiRun lines and resolved through the virtual call.
     */
    struct SlicePlan
    {
        static constexpr std::uint32_t kMultiRun = ~0u;

        Addr addr;
        std::uint32_t values;
        std::uint32_t lines;
    };

    /**
     * The (rows x numSlices()) slice-plan table, indexed
     * v * numSlices() + s; built lazily on first use (thread-safe —
     * layouts are shared across the sweep job pool) and dropped on
     * re-prepare. The row-product sweeps resolve tens of millions
     * of picks against only rows x slices distinct plans, so the
     * table turns two virtual calls plus a plan build per pick into
     * one 16-byte load.
     */
    const SlicePlan *sliceTable() const;

    /** Expected non-zero density used by offline estimates. */
    void setExpectedDensity(double density)
    {
        expectedDensity = density;
    }

    /** Number of unit slices per row (1 when slicing unsupported). */
    unsigned numSlices() const { return sliceCount; }

    /** Feature width (columns). */
    std::uint32_t featureWidth() const { return width; }

    /** Unit slice width in features. */
    std::uint32_t sliceWidth() const { return unitSlice; }

    /** First feature column of slice @p s. */
    std::uint32_t sliceBegin(unsigned s) const;

    /** One past the last feature column of slice @p s. */
    std::uint32_t sliceEnd(unsigned s) const;

  protected:
    const FeatureMask *boundMask = nullptr;
    Addr baseAddr = 0;
    std::uint32_t width;
    std::uint32_t unitSlice;
    unsigned sliceCount;
    double expectedDensity = 0.5;

  private:
    /** totalRowReadLines() memo; 0 = not yet computed (re-prepare
     *  resets it). */
    mutable std::atomic<std::uint64_t> rowReadLinesMemo{0};

    /** sliceTable() storage, double-checked under the mutex. */
    mutable std::atomic<bool> sliceTableReady{false};
    mutable std::mutex sliceTableMutex;
    mutable std::vector<SlicePlan> sliceTableData;
};

/** Construct one of the baseline (non-BEICSR) layouts. */
std::unique_ptr<FeatureLayout>
makeBaselineLayout(FormatKind kind, std::uint32_t feature_width,
                   std::uint32_t slice_width);

} // namespace sgcn

#endif // SGCN_FORMATS_FORMAT_HH
