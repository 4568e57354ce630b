/**
 * @file
 * Tiny command-line flag parser shared by benches and examples.
 *
 * Supports "--name value", "--name=value", and boolean "--name".
 * Environment variable SGCN_BENCH_SCALE feeds the default workload
 * scale so running every bench binary in sequence stays fast while a
 * user can still request full-size runs.
 */

#ifndef SGCN_SIM_CLI_HH
#define SGCN_SIM_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgcn
{

/** Parsed command-line flags with typed accessors. */
class Cli
{
  public:
    Cli(int argc, char **argv);

    /** True if the flag was given (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of a flag, or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /**
     * Unsigned flag (--linger, --serve-seed, ...), or @p fallback.
     * fatal() unless the value is an integer in [@p min, @p max], so
     * a negative value cannot wrap to a huge unsigned one.
     */
    std::uint64_t
    getUnsigned(const std::string &name, std::uint64_t fallback,
                std::uint64_t min = 0,
                std::uint64_t max = UINT64_MAX) const;

    /** Count-valued flag (--jobs, --chips, ...), or @p fallback:
     *  getUnsigned() limited to [@p min, UINT_MAX]. */
    unsigned getCount(const std::string &name, unsigned fallback,
                      unsigned min) const;

    /** Double value of a flag, or @p fallback. */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean value: bare flag or explicit true/false/1/0. */
    bool getBool(const std::string &name, bool fallback) const;

    /** Basename of argv[0], for messages. */
    const std::string &program() const { return programName; }

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positionalArgs;
    }

    /**
     * Exit 2 (a usage error) if any flag given is not in @p known:
     * each offender is named after @p who ("sgcn_sim run: unknown
     * flag --chps"), then @p usage is printed, or the accepted flags
     * when it is empty. A typo like --datsets CR must never silently
     * run the defaults.
     */
    void requireKnownFlags(const std::vector<std::string> &known,
                           const std::string &who,
                           const std::string &usage = "") const;

    /**
     * Global workload scale factor: 1.0 default, overridable via the
     * --scale flag or the SGCN_BENCH_SCALE environment variable.
     * fatal() unless the value is a number > 0.
     */
    double scale() const;

  private:
    std::string programName;
    std::map<std::string, std::string> flags;
    std::vector<std::string> positionalArgs;
};

} // namespace sgcn

#endif // SGCN_SIM_CLI_HH
