/**
 * @file
 * perfbench: the end-to-end benchmark of bpsim.
 *
 *     perfbench --workload sweep|serve_hot|serve_mixed --seed N
 *               --seconds S --trace 0|1 --workdir DIR
 *     perfbench --dump-inputs WORKLOAD --seed N --seconds S
 *
 * Prints informational lines starting with '#', then one JSON line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones.
 * Normally launched through perfbench/run.py, which builds it first.
 */

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "gen.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** A seed kept out of every tuning run, for confirming claims. */
constexpr std::uint64_t kHeldOutSeed = 90017;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n"
                 "       perfbench --dump-inputs NAME --seed N --seconds "
                 "S\n");
    return 2;
}

bool
parseUint(const char *s, unsigned long long max, unsigned long long &out)
{
    char *end = nullptr;
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0' && out <= max;
}

/** Directory of this executable (campaign_server is built beside it). */
std::string
selfDir()
{
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return ".";
    std::string path(buf, static_cast<std::size_t>(n));
    return path.substr(0, path.rfind('/'));
}

} // namespace

int
main(int argc, char **argv)
{
    bpsim::setQuietLogging(true);
    Run run;
    std::string dump;
    unsigned long long seed = 0, seconds = 0, trace = 0;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (val == nullptr)
            return usage();
        ++i;
        if (arg == "--workload") {
            run.workload = val;
        } else if (arg == "--dump-inputs") {
            dump = val;
        } else if (arg == "--seed") {
            if (!parseUint(val, ULLONG_MAX, seed))
                return usage();
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUint(val, 3600, seconds) || seconds == 0)
                return usage();
            have_seconds = true;
        } else if (arg == "--trace") {
            if (!parseUint(val, 1, trace))
                return usage();
        } else if (arg == "--workdir") {
            run.workdir = val;
        } else {
            return usage();
        }
    }
    if (!have_seed || !have_seconds)
        return usage();

    try {
        if (!dump.empty()) {
            std::fputs(dumpInputs(dump, seed, static_cast<int>(seconds))
                           .c_str(),
                       stdout);
            return 0;
        }
        if (run.workdir.empty())
            return usage();
        run.seed = seed;
        run.seconds = static_cast<int>(seconds);
        run.trace = trace == 1;
        run.size = runSize(run.workload, run.seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return usage();
    }
    run.serverBinary = selfDir() + "/campaign_server";
    if (::access(run.serverBinary.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "perfbench: no %s\n", run.serverBinary.c_str());
        return 1;
    }

    std::printf("# perfbench workload %s seed %llu seconds %d trace %d\n",
                run.workload.c_str(), seed, run.seconds, run.trace ? 1 : 0);
    std::printf("# held-out seed %llu (never used while tuning)\n",
                static_cast<unsigned long long>(kHeldOutSeed));
    std::fflush(stdout);
    runWorkload(run);
    std::printf("%s\n",
                resultLine(run.failed == 0, run.attempted, run.failed,
                           run.trace ? run.layer : run.e2e)
                    .c_str());
    return 0;
}
