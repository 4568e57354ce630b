#include "sim/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "sim/logging.hh"

namespace sgcn
{

Cli::Cli(int argc, char **argv)
{
    if (argc > 0) {
        programName = argv[0];
        programName.erase(0, programName.find_last_of('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionalArgs.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags[arg] = argv[++i];
        } else {
            flags[arg] = "";
        }
    }
}

bool
Cli::has(const std::string &name) const
{
    return flags.count(name) > 0;
}

std::string
Cli::getString(const std::string &name, const std::string &fallback) const
{
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
}

std::uint64_t
Cli::getUnsigned(const std::string &name, std::uint64_t fallback,
                 std::uint64_t min, std::uint64_t max) const
{
    const std::string text = getString(name, "");
    if (text.empty())
        return fallback;
    // strtoull reads "-1" as a wrapped 2^64 - 1: reject any minus.
    char *end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 0);
    if (text.find('-') != std::string::npos || *end != '\0' ||
        errno == ERANGE || value < min || value > max) {
        fatal("bad --", name, " value '", text,
              "' (expected an integer >= ", min, ")");
    }
    return value;
}

unsigned
Cli::getCount(const std::string &name, unsigned fallback,
              unsigned min) const
{
    return static_cast<unsigned>(getUnsigned(
        name, fallback, min, std::numeric_limits<unsigned>::max()));
}

double
Cli::getDouble(const std::string &name, double fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("bad numeric flag --", name, "=", it->second);
    return value;
}

bool
Cli::getBool(const std::string &name, bool fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    const std::string &value = it->second;
    if (value.empty() || value == "1" || value == "true" ||
        value == "yes") {
        return true;
    }
    if (value == "0" || value == "false" || value == "no")
        return false;
    fatal("bad boolean flag --", name, "=", value);
}

void
Cli::requireKnownFlags(const std::vector<std::string> &known,
                       const std::string &who,
                       const std::string &usage) const
{
    bool clean = true;
    for (const auto &[name, value] : flags) {
        if (std::find(known.begin(), known.end(), name) != known.end())
            continue;
        std::fprintf(stderr, "%s: unknown flag --%s\n", who.c_str(),
                     name.c_str());
        clean = false;
    }
    if (clean)
        return;
    if (usage.empty()) {
        std::fputs("accepted flags:", stderr);
        for (const std::string &flag : known)
            std::fprintf(stderr, " --%s", flag.c_str());
        std::fputs("\n", stderr);
    } else {
        std::fputs(usage.c_str(), stderr);
    }
    std::exit(2);
}

double
Cli::scale() const
{
    const char *env = std::getenv("SGCN_BENCH_SCALE");
    if (!has("scale") && env == nullptr)
        return 1.0;
    const char *source = has("scale") ? "--scale" : "SGCN_BENCH_SCALE";
    const std::string text = has("scale") ? getString("scale", "") : env;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value > 0.0) ||
        !std::isfinite(value)) {
        fatal("bad ", source, " value '", text,
              "' (expected a number > 0)");
    }
    return value;
}

} // namespace sgcn
