/**
 * @file
 * The recoverable-error layer (Expected/Status) and every library
 * path converted from fatal() to typed errors: graph loaders fed
 * crafted corrupt fixtures, synth-spec parsing, partition-policy and
 * personality lookups, and the sgcn_sim CLI's exit-code contract
 * (carries the "corrupt" ctest label; the ASan+UBSan CI job runs
 * exactly this label over the malformed-input fixtures).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/personalities.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "sim/error.hh"

namespace sgcn
{
namespace
{

/** Self-deleting scratch path. */
struct TempFile
{
    std::string path;

    explicit TempFile(const char *suffix)
        : path("/tmp/sgcn_err_" + std::to_string(::getpid()) + suffix)
    {
    }

    ~TempFile() { std::remove(path.c_str()); }

    void
    writeText(const std::string &text) const
    {
        std::ofstream out(path);
        out << text;
    }

    void
    writeBytes(const std::vector<char> &bytes) const
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
};

/** A well-formed binary CSR snapshot to corrupt from. */
std::vector<char>
goodSnapshotBytes()
{
    const CsrGraph graph = erdosRenyi(64, 4.0, 7);
    TempFile file("_seed.csr");
    EXPECT_TRUE(saveCsrBinary(graph, file.path).ok());
    std::ifstream in(file.path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
expectLoadFails(const TempFile &file, ErrorCode code)
{
    Expected<CsrGraph> loaded = loadCsrBinary(file.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, code) << loaded.error().message;
    EXPECT_NE(loaded.error().message.find(file.path),
              std::string::npos);
}

// --------------------------------------------------------------
// Expected / Status semantics
// --------------------------------------------------------------

TEST(ExpectedT, CarriesAValueOrAnError)
{
    Expected<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(std::move(good).orFatal(), 42);

    Expected<int> bad(makeError(ErrorCode::NotFound, "no ", 7));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::NotFound);
    EXPECT_EQ(bad.error().message, "no 7");
}

TEST(StatusT, DefaultsToSuccess)
{
    EXPECT_TRUE(Status::success().ok());
    Status failed(makeError(ErrorCode::IoError, "disk on fire"));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, ErrorCode::IoError);
    EXPECT_STREQ(errorCodeName(failed.error().code), "io-error");
}

// --------------------------------------------------------------
// Edge-list loader
// --------------------------------------------------------------

TEST(EdgeListLoader, MissingFileIsAnIoError)
{
    Expected<CsrGraph> loaded =
        loadEdgeList("/nonexistent/sgcn_nowhere.el");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::IoError);
}

TEST(EdgeListLoader, MalformedLineNamesTheOffendingLine)
{
    TempFile file(".el");
    file.writeText("# comment\n0 1\n1 banana\n");
    Expected<CsrGraph> loaded = loadEdgeList(file.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
    // Line numbers count comments, so the bad row is line 3.
    EXPECT_NE(loaded.error().message.find(":3"), std::string::npos)
        << loaded.error().message;
}

TEST(EdgeListLoader, VertexBeyondDeclaredCountIsCorruptData)
{
    TempFile file(".el");
    file.writeText("0 1\n1 99\n");
    Expected<CsrGraph> loaded =
        loadEdgeList(file.path, /*num_vertices=*/10);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
}

TEST(EdgeListLoader, RoundTripsThroughSave)
{
    const CsrGraph graph = erdosRenyi(32, 3.0, 11);
    TempFile file(".el");
    ASSERT_TRUE(saveEdgeList(graph, file.path).ok());
    Expected<CsrGraph> loaded =
        loadEdgeList(file.path, graph.numVertices());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.value().numEdges(), graph.numEdges());
}

TEST(EdgeListSaver, UnwritablePathIsAnIoError)
{
    Status saved =
        saveEdgeList(erdosRenyi(8, 2.0, 1), "/nonexistent/dir/x.el");
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.error().code, ErrorCode::IoError);
}

// --------------------------------------------------------------
// Binary CSR snapshots: one crafted fixture per validation step
// --------------------------------------------------------------

TEST(CsrSnapshot, MissingFileIsAnIoError)
{
    Expected<CsrGraph> loaded =
        loadCsrBinary("/nonexistent/sgcn_nowhere.csr");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::IoError);
}

TEST(CsrSnapshot, BadMagicIsCorruptData)
{
    std::vector<char> bytes = goodSnapshotBytes();
    bytes[0] = 'X';
    TempFile file("_magic.csr");
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, ShorterThanTheHeaderIsCorruptData)
{
    TempFile file("_stub.csr");
    file.writeBytes({'S', 'G', 'C', 'N'});
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, ZeroVertexHeaderIsCorruptData)
{
    std::vector<char> bytes = goodSnapshotBytes();
    // n is the first u64 after the 8-byte magic.
    std::memset(bytes.data() + 8, 0, sizeof(std::uint64_t));
    TempFile file("_zero.csr");
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, TruncatedBodyIsCorruptDataNotAnAllocation)
{
    std::vector<char> bytes = goodSnapshotBytes();
    bytes.resize(bytes.size() / 2);
    TempFile file("_trunc.csr");
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, HugeDeclaredSizeIsRejectedBeforeAllocating)
{
    // A header declaring 2^40 edges over a tiny payload must fail the
    // size cross-check, not attempt a terabyte allocation.
    std::vector<char> bytes = goodSnapshotBytes();
    const std::uint64_t huge = 1ull << 40;
    std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
    TempFile file("_huge.csr");
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, NonMonotoneRowPointersAreCorruptData)
{
    const CsrGraph graph = erdosRenyi(16, 3.0, 3);
    TempFile file("_mono.csr");
    ASSERT_TRUE(saveCsrBinary(graph, file.path).ok());
    std::ifstream in(file.path, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    in.close();
    // Swap row_ptr[1] (offset 24) far above row_ptr[2].
    const std::uint64_t spike = graph.numEdges() + 100;
    std::memcpy(bytes.data() + 24 + sizeof(EdgeId), &spike,
                sizeof(EdgeId));
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, OutOfRangeColumnIdIsCorruptData)
{
    const CsrGraph graph = erdosRenyi(16, 3.0, 3);
    TempFile file("_col.csr");
    ASSERT_TRUE(saveCsrBinary(graph, file.path).ok());
    std::ifstream in(file.path, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    in.close();
    // Poison the first column id (right after the row-pointer array).
    const std::size_t col_off =
        8 + 2 * sizeof(std::uint64_t) +
        (graph.numVertices() + 1) * sizeof(EdgeId);
    const VertexId bad = graph.numVertices() + 5;
    std::memcpy(bytes.data() + col_off, &bad, sizeof(VertexId));
    file.writeBytes(bytes);
    expectLoadFails(file, ErrorCode::CorruptData);
}

TEST(CsrSnapshot, RoundTripsThroughSave)
{
    const CsrGraph graph = erdosRenyi(64, 4.0, 7);
    TempFile file(".csr");
    ASSERT_TRUE(saveCsrBinary(graph, file.path).ok());
    Expected<CsrGraph> loaded = loadCsrBinary(file.path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.value().numEdges(), graph.numEdges());
}

// --------------------------------------------------------------
// Name lookups and spec parsing
// --------------------------------------------------------------

TEST(Lookups, BadSynthSpecsAreParseErrors)
{
    for (const char *bad :
         {"synth:", "synth:0", "synth:1", "synth:abc", "synth:2q",
          "synth:2k:deg", "synth:2k:deg0", "synth:2k:degx",
          "synth:2k:speed9"}) {
        Expected<DatasetSpec> spec = tryDatasetByAbbrev(bad);
        ASSERT_FALSE(spec.ok()) << bad;
        EXPECT_EQ(spec.error().code, ErrorCode::ParseError) << bad;
    }
    EXPECT_TRUE(tryDatasetByAbbrev("synth:2k:deg12").ok());
}

TEST(Lookups, UnknownDatasetIsNotFound)
{
    Expected<DatasetSpec> spec = tryDatasetByAbbrev("ZZ");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, ErrorCode::NotFound);
    EXPECT_TRUE(tryDatasetByAbbrev("CR").ok());
}

TEST(Lookups, UnknownPartitionPolicyIsNotFound)
{
    Expected<PartitionPolicy> policy =
        tryPartitionPolicyByName("bogus");
    ASSERT_FALSE(policy.ok());
    EXPECT_EQ(policy.error().code, ErrorCode::NotFound);
    EXPECT_TRUE(tryPartitionPolicyByName("edge").ok());
}

TEST(Lookups, UnknownPersonalityIsNotFoundAndListsTheRoster)
{
    Expected<AccelConfig> config = tryPersonalityByName("bogus");
    ASSERT_FALSE(config.ok());
    EXPECT_EQ(config.error().code, ErrorCode::NotFound);
    EXPECT_NE(config.error().message.find("SGCN"), std::string::npos);
    EXPECT_TRUE(tryPersonalityByName("SGCN").ok());
}

// --------------------------------------------------------------
// sgcn_sim exit codes (the CLI boundary keeps fatal/usage exits)
// --------------------------------------------------------------

/** Exit code and stderr of `./<binary> <args>` (cwd = build dir),
 *  or exit code -1 when the binary was not built there. */
std::pair<int, std::string>
runCapturingStderr(const std::string &binary, const std::string &args)
{
    if (!std::ifstream("./" + binary).good())
        return {-1, ""};
    const std::string cmd =
        "./" + binary + " " + args + " 2>&1 >/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return {-2, ""};
    std::string err;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
        err += buf;
    const int rc = pclose(pipe);
    return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -2, err};
}

/** Exit code of `./sgcn_sim <args>`; -1 when it is not where ctest
 *  puts it (manual runs from elsewhere). */
int
runSim(const std::string &args)
{
    return runCapturingStderr("sgcn_sim", args).first;
}

TEST(SimCli, ExitCodesDistinguishUsageFromRuntimeErrors)
{
    const int probe = runSim("datasets");
    if (probe == -1)
        GTEST_SKIP() << "sgcn_sim binary not in the working directory";
    EXPECT_EQ(probe, 0);

    // Unknown flags and commands are usage errors: exit 2.
    EXPECT_EQ(runSim("datasets --chps 4"), 2);
    EXPECT_EQ(runSim("frobnicate"), 2);
    EXPECT_EQ(runSim(""), 2);

    // Bad flag values hit the CLI-boundary fatal(): exit 1.
    EXPECT_EQ(runSim("datasets --scale banana"), 1);

    // Every binary parses through the one strict library parser, so
    // the contract holds for the bench harnesses and the examples
    // too: a typo such as --datsets or a flag the binary does not
    // take (fig11 has no serve flags) exits 2 instead of silently
    // running the defaults, and a bad --mode, --arrival or --scale
    // exits 1 instead of running fast mode or aborting.
    struct Case
    {
        std::string binary;
        std::string args;
        int code;
    };
    const std::string run = "run --dataset CR --accels SGCN ";
    const std::string serve = "serve --dataset CR --accels SGCN ";
    const std::vector<Case> cases{
        {"sgcn_sim", run + "--datsets CR", 2},
        {"sgcn_sim", run + "--requests 8", 2},
        {"sgcn_sim", run + "--mode timnig", 1},
        {"sgcn_sim", serve + "--arrival sometimes", 1},
        {"sgcn_sim", serve + "--requests -1", 1},
        {"sgcn_sim", run + "--scale 0", 1},
        {"fig11_performance", "--datsets CR --mode timnig", 2},
        {"fig11_performance", "--datasets CR --requests 8", 2},
        {"fig11_performance", "--datasets CR --mode timnig", 1},
        {"fig11_performance", "--datasets CR --scale abc", 1},
        {"fig21_serving", "--datsets CR", 2},
        {"fig21_serving", "--datasets CR --mode timnig", 1},
        {"fig21_serving", "--datasets CR --arrival sometimes", 1},
        {"fig21_serving", "--datasets CR --requests -1", 1},
        {"fig21_serving", "--datasets CR --scale -1", 1},
        {"example_quickstart", "--datset CR", 2},
        {"example_quickstart", "--requests 8", 2},
        {"example_quickstart", "--mode timnig", 1},
        {"example_quickstart", "--scale 0", 1},
    };
    for (const Case &c : cases) {
        const auto [code, err] = runCapturingStderr(c.binary, c.args);
        if (code == -1)
            continue;
        SCOPED_TRACE(c.binary + " " + c.args + "\n" + err);
        EXPECT_EQ(code, c.code);
    }

    // The scale environment variable is checked like --scale.
    ::setenv("SGCN_BENCH_SCALE", "abc", 1);
    for (const char *binary :
         {"sgcn_sim", "fig11_performance", "fig21_serving",
          "example_quickstart"}) {
        const auto [code, err] = runCapturingStderr(
            binary, binary == std::string("sgcn_sim") ? "datasets" : "");
        if (code == -1)
            continue;
        SCOPED_TRACE(binary);
        EXPECT_EQ(code, 1);
        EXPECT_EQ(err, "fatal: bad SGCN_BENCH_SCALE value 'abc' "
                       "(expected a number > 0)\n");
    }
    ::unsetenv("SGCN_BENCH_SCALE");
}

TEST(SimCli, NegativeCountsAreRejectedNotWrapped)
{
    // A negative count must not wrap to a huge unsigned one (--jobs
    // -1 as 4294967295 workers, --requests -1 or --engines -1 as a
    // std::bad_alloc abort); counts that must be positive reject zero
    // as well. Every binary shares one check: same message, exit 1.
    using Invocations = std::vector<std::pair<std::string, std::string>>;
    const Invocations runs{
        {"sgcn_sim", "run --dataset CR --accels SGCN "},
        {"fig11_performance", "--datasets CR "},
        {"fig21_serving", "--datasets CR "}};
    const Invocations serves{
        {"sgcn_sim", "serve --dataset CR --accels SGCN "},
        {"fig21_serving", "--datasets CR "}};
    const Invocations sampled_runs{
        {"sgcn_sim", "run --dataset CR --accels SGCN "},
        {"fig11_performance", "--datasets CR "},
        {"example_accelerator_comparison", "--dataset CR "}};
    const Invocations sim_runs{
        {"sgcn_sim", "run --dataset CR --accels SGCN "}};
    TempFile edges(".edges");
    edges.writeText("0 1\n1 2\n2 0\n");
    const Invocations edge_list_runs{
        {"sgcn_sim", "run --edge-list " + edges.path + " --accels SGCN "}};

    struct Case
    {
        std::string flag;
        std::string message;
        const Invocations &binaries;
    };
    const auto expected = [](const std::string &flag,
                             const std::string &value, int min) {
        return "fatal: bad --" + flag + " value '" + value +
               "' (expected an integer >= " + std::to_string(min) +
               ")\n";
    };
    const std::vector<Case> cases{
        {"--jobs -1", expected("jobs", "-1", 0), runs},
        {"--chips -2", expected("chips", "-2", 1), runs},
        {"--sampled 0", expected("sampled", "0", 1), sampled_runs},
        {"--jobs 4294967296", expected("jobs", "4294967296", 0), runs},
        {"--requests -1", expected("requests", "-1", 1), serves},
        {"--batch-max 0", expected("batch-max", "0", 1), serves},
        {"--hops -1", expected("hops", "-1", 0), serves},
        {"--fanout -2", expected("fanout", "-2", 0), serves},
        {"--linger -1", expected("linger", "-1", 0), serves},
        {"--linger 18446744073709551616",
         expected("linger", "18446744073709551616", 0), serves},
        {"--serve-seed -5", expected("serve-seed", "-5", 0), serves},
        {"--engines -1", expected("engines", "-1", 1), sim_runs},
        {"--hidden -1", expected("hidden", "-1", 1), sim_runs},
        {"--cache-kb 0", expected("cache-kb", "0", 1), sim_runs},
        {"--input-width -1", expected("input-width", "-1", 1),
         edge_list_runs},
    };
    bool ran = false;
    for (const Case &c : cases) {
        for (const auto &[binary, args] : c.binaries) {
            const auto [code, err] =
                runCapturingStderr(binary, args + c.flag);
            if (code == -1)
                continue;
            ran = true;
            SCOPED_TRACE(binary + " " + c.flag);
            EXPECT_EQ(code, 1);
            EXPECT_EQ(err, c.message);
        }
    }
    if (!ran)
        GTEST_SKIP() << "no CLI binary in the working directory";
}

} // namespace
} // namespace sgcn
