#include "cli.hh"

#include <charconv>
#include <set>

namespace perfbench
{

namespace
{

using sgcn::ErrorCode;
using sgcn::makeError;

/** Whole-string unsigned decimal, or false (no sign, no spaces). */
bool
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

const std::vector<WorkloadKind> &
allWorkloads()
{
    static const std::vector<WorkloadKind> kinds{
        WorkloadKind::PaperSweep, WorkloadKind::TimingSmall,
        WorkloadKind::ServeTrace, WorkloadKind::Scaleout};
    return kinds;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::PaperSweep:
        return "paper-sweep";
      case WorkloadKind::TimingSmall:
        return "timing-small";
      case WorkloadKind::ServeTrace:
        return "serve-trace";
      case WorkloadKind::Scaleout:
        return "scaleout";
    }
    return "invalid";
}

sgcn::Expected<BenchArgs>
parseArgs(const std::vector<std::string> &args)
{
    BenchArgs out;
    bool have_workload = false;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0)
            return makeError(ErrorCode::InvalidArgument,
                             "unexpected argument '", arg, "'");
        std::string name = arg.substr(2);
        std::string value;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else if (i + 1 < args.size()) {
            value = args[++i];
        } else {
            return makeError(ErrorCode::InvalidArgument, "flag --",
                             name, " needs a value");
        }
        if (!seen.insert(name).second)
            return makeError(ErrorCode::InvalidArgument, "flag --",
                             name, " given twice");

        std::uint64_t number = 0;
        if (name == "workload") {
            have_workload = false;
            for (WorkloadKind kind : allWorkloads()) {
                if (value == workloadName(kind)) {
                    out.workload = kind;
                    have_workload = true;
                }
            }
            if (!have_workload)
                return makeError(ErrorCode::InvalidArgument,
                                 "unknown workload '", value, "'");
        } else if (name == "seed") {
            if (value == "default")
                out.seed = kDefaultSeed;
            else if (value == "heldout")
                out.seed = kHeldOutSeed;
            else if (parseUnsigned(value, number))
                out.seed = number;
            else
                return makeError(ErrorCode::InvalidArgument,
                                 "bad --seed '", value,
                                 "' (expected a non-negative integer, "
                                 "default or heldout)");
        } else if (name == "seconds") {
            if (!parseUnsigned(value, number) || number < 1 ||
                number > 3600)
                return makeError(ErrorCode::InvalidArgument,
                                 "bad --seconds '", value,
                                 "' (expected an integer in 1..3600)");
            out.seconds = static_cast<unsigned>(number);
        } else if (name == "trace") {
            if (value != "0" && value != "1")
                return makeError(ErrorCode::InvalidArgument,
                                 "bad --trace '", value,
                                 "' (expected 0 or 1)");
            out.trace = value == "1";
        } else if (name == "trace-dir") {
            if (value.empty())
                return makeError(ErrorCode::InvalidArgument,
                                 "empty --trace-dir");
            out.traceDir = value;
        } else {
            return makeError(ErrorCode::InvalidArgument,
                             "unknown flag --", name);
        }
    }
    if (!have_workload)
        return makeError(ErrorCode::InvalidArgument,
                         "missing --workload (one of paper-sweep, "
                         "timing-small, serve-trace, scaleout)");
    return out;
}

} // namespace perfbench
