#include "sim/cli.hh"

#include <cstdlib>
#include <limits>

#include "sim/logging.hh"

namespace sgcn
{

Cli::Cli(int argc, char **argv)
{
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

std::int64_t
Cli::getInt(const std::string &name, std::int64_t fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const std::int64_t value =
        std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("bad integer flag --", name, "=", it->second);
    return value;
}

unsigned
Cli::getCount(const std::string &name, unsigned fallback,
              unsigned min) const
{
    const std::int64_t value = getInt(name, fallback);
    if (value < min || value > std::numeric_limits<unsigned>::max()) {
        fatal("bad --", name, " value '", getString(name, ""),
              "' (expected an integer >= ", min, ")");
    }
    return static_cast<unsigned>(value);
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

std::vector<std::string>
Cli::unknownFlags(const std::vector<std::string> &known) const
{
    std::vector<std::string> unknown;
    for (const auto &[name, value] : flags) {
        bool found = false;
        for (const std::string &k : known)
            found = found || k == name;
        if (!found)
            unknown.push_back(name);
    }
    return unknown;
}

double
Cli::scale() const
{
    if (has("scale"))
        return getDouble("scale", 1.0);
    if (const char *env = std::getenv("SGCN_BENCH_SCALE"))
        return std::strtod(env, nullptr);
    return 1.0;
}

} // namespace sgcn
