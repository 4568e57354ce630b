/**
 * @file
 * Seeded deterministic fault injection for the sharded runtime.
 *
 * A FaultPlan is parsed from a --faults spec string and carried by
 * value inside RunOptions; every fault decision is a pure counter
 * hash over (plan seed, chip, layer, attempt), so outcomes are
 * bit-reproducible across --jobs and replayable from the canonical
 * spec the run banner prints. Nothing here owns mutable state — the
 * consumers (exchange pricing, the DRAM model, the sharded runner)
 * ask the plan questions and account the consequences themselves.
 *
 * Spec grammar (comma-separated clauses):
 *   link-degrade:chip<C>:<p>            chip C's link port drops each
 *                                       transfer attempt w.p. p
 *   chip-stall:chip<C>:<cycles>[@layer<L>]
 *                                       chip C stalls for the given
 *                                       cycles (every layer, or only
 *                                       architectural layer L)
 *   chip-fail:chip<C>[@layer<L>]        chip C dies at the first
 *                                       simulated layer >= L
 *                                       (default 1)
 *   dram-retry:<p>                      each timing-mode DRAM burst
 *                                       suffers a transient error
 *                                       w.p. p (bounded retries ride
 *                                       the normal burst path)
 *   seed:<n>                            fault RNG seed (default
 *                                       kDefaultFaultSeed)
 */

#ifndef SGCN_SIM_FAULT_FAULT_HH
#define SGCN_SIM_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/error.hh"
#include "sim/types.hh"

namespace sgcn
{

/** What a fault clause injects. */
enum class FaultKind : std::uint8_t
{
    LinkDegrade,
    ChipStall,
    ChipFail,
    DramRetry,
};

/** Human-readable kind name (the spec keyword). */
constexpr const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDegrade:
        return "link-degrade";
      case FaultKind::ChipStall:
        return "chip-stall";
      case FaultKind::ChipFail:
        return "chip-fail";
      case FaultKind::DramRetry:
        return "dram-retry";
    }
    return "invalid";
}

/** Matches every architectural layer. */
constexpr unsigned kFaultAnyLayer = 0xffffffffu;

/** One parsed fault clause. */
struct FaultSpec
{
    FaultKind kind = FaultKind::LinkDegrade;

    /** Target chip (original chip id; unused for dram-retry). */
    unsigned chip = 0;

    /** Per-attempt probability (link-degrade, dram-retry). */
    double rate = 0.0;

    /** Stall length (chip-stall). */
    Cycle stallCycles = 0;

    /** Architectural layer the clause applies to (0 = input layer);
     *  kFaultAnyLayer = all layers. chip-fail triggers at the first
     *  simulated layer >= this. */
    unsigned layer = kFaultAnyLayer;
};

/** Default fault RNG seed (any fixed value works; this one makes the
 *  banner's replay line self-documenting). */
constexpr std::uint64_t kDefaultFaultSeed = 0xfa017;

/**
 * A full fault schedule: the parsed clauses plus the seed. Plans are
 * value types; an empty plan (the default) means no faults and costs
 * nothing on any hot path.
 */
struct FaultPlan
{
    std::vector<FaultSpec> faults;
    std::uint64_t seed = kDefaultFaultSeed;

    /** True when any clause is present. */
    bool active() const { return !faults.empty(); }

    /** Parse a --faults spec string (see file comment). */
    static Expected<FaultPlan> parse(const std::string &spec);

    /**
     * The canonical spec string: parse(canonical()) reproduces this
     * plan exactly (clauses in stored order, seed always explicit).
     * Printed in the run banner as the replay handle.
     */
    std::string canonical() const;

    /**
     * Check the plan against a run shape: chip-targeted clauses need
     * chips > 1 and an in-range chip index. Returns the first
     * violation.
     */
    Status validate(unsigned chips) const;

    /** Transient-error probability for DRAM bursts (0 = none). */
    double dramRetryProb() const;

    /** Per-attempt drop probability of @p chip's link port. */
    double linkDegradeProb(unsigned chip) const;

    /** Total stall injected into @p chip at @p arch_layer. */
    Cycle chipStall(unsigned chip, unsigned arch_layer) const;

    /** True when @p chip dies at (or before) @p arch_layer. */
    bool failsAt(unsigned chip, unsigned arch_layer) const;
};

/**
 * Pure counter-hash fault decisions over a plan. Stateless: the same
 * (stream, counter) pair always answers the same, on any thread, in
 * any order — this is what makes fault timelines independent of
 * --jobs and of chunked-vs-whole graph construction.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &p) : planRef(p) {}

    const FaultPlan &plan() const { return planRef; }

    /** Uniform [0, 1) from a pure hash of (seed, stream, counter). */
    static double hashUniform(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t counter);

    /**
     * Derive a per-stream child seed (e.g. one DRAM retry seed per
     * chip) from the plan seed. Pure, so every consumer derives the
     * same child regardless of thread or call order.
     */
    static std::uint64_t deriveSeed(std::uint64_t seed,
                                    std::uint64_t stream);

    /**
     * Does transfer attempt @p attempt of @p chip's exchange at
     * @p arch_layer fail, given per-attempt probability @p prob?
     */
    bool
    attemptFails(unsigned chip, unsigned arch_layer, unsigned attempt,
                 double prob) const
    {
        if (prob <= 0.0)
            return false;
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(chip) << 32) | arch_layer;
        return hashUniform(planRef.seed, stream, attempt) < prob;
    }

  private:
    const FaultPlan &planRef;
};

/** How a sharded run reacts to a chip failure. */
enum class DegradedMode : std::uint8_t
{
    /** Redistribute the dead chip's shard to the survivors and
     *  replay the layer from the last completed layer boundary. */
    Repartition,

    /** Surface the failure as an error (non-zero exit at the CLI). */
    FailFast,
};

/** Human-readable degraded-mode name (the CLI value). */
constexpr const char *
degradedModeName(DegradedMode mode)
{
    switch (mode) {
      case DegradedMode::Repartition:
        return "repartition";
      case DegradedMode::FailFast:
        return "fail-fast";
    }
    return "invalid";
}

/** Parse a --degraded-mode value ("repartition"|"fail-fast"). */
Expected<DegradedMode> parseDegradedMode(const std::string &name);

} // namespace sgcn

#endif // SGCN_SIM_FAULT_FAULT_HH
