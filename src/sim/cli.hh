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

    /** Integer value of a flag, or @p fallback. */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /**
     * Count-valued flag (--jobs, --chips, ...), or @p fallback.
     * fatal() unless the value is an integer in [@p min, UINT_MAX],
     * so a negative count cannot wrap to a huge unsigned one.
     */
    unsigned getCount(const std::string &name, unsigned fallback,
                      unsigned min) const;

    /** Double value of a flag, or @p fallback. */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean value: bare flag or explicit true/false/1/0. */
    bool getBool(const std::string &name, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positionalArgs;
    }

    /** Flags that were given but are not in @p known, in sorted
     *  order. Lets each tool subcommand reject typos ("--chps 4")
     *  instead of silently ignoring them. */
    std::vector<std::string>
    unknownFlags(const std::vector<std::string> &known) const;

    /**
     * Global workload scale factor: 1.0 default, overridable via the
     * --scale flag or the SGCN_BENCH_SCALE environment variable.
     */
    double scale() const;

  private:
    std::map<std::string, std::string> flags;
    std::vector<std::string> positionalArgs;
};

} // namespace sgcn

#endif // SGCN_SIM_CLI_HH
