/**
 * @file
 * regless_bench: the repository benchmark's program (see README.md).
 * It links the simulator library and the figure generators and runs
 * one named workload:
 *
 *   report_cold  every registered figure, in registry order, on one
 *                ExperimentEngine with jobs=nproc, no disk cache, no lint
 *   report_warm  the same figures served from a cache directory that
 *                one cold pass filled during set-up
 *
 * After the timed work, both check the held-out input: the
 * workloads::randomKernel(seed) kernel at 64 SMs under baseline and
 * regless, untimed.
 *
 *   regless_bench --workload W --seed N --seconds S --trace 0|1
 *                 --golden DIR --work DIR
 *   regless_bench --record-golden --golden DIR
 *   regless_bench --selftest --golden DIR
 *
 * Every output is checked against the golden records in --golden.
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and metrics. --trace 0 prints the end-to-end
 * metrics; --trace 1 runs the layer profile instead (both report
 * workloads and chip, MultiSmSimulator at 64 SMs on srad_v1 and
 * particle_filter, whatever --workload names), writes a Chrome trace
 * into --work and prints the per-layer metrics. Every time is host
 * time of the simulator.
 */

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.hh"
#include "figures/figures.hh"
#include "sim/experiment_engine.hh"
#include "sim/gpu_simulator.hh"
#include "sim/job_cache.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "spans.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

using namespace regless;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::Spans;
using perfbench::Stopwatch;
using perfbench::secondsBetween;

namespace
{

/** The seed the golden chip records were made with. */
constexpr std::uint64_t kDefaultSeed = 1;

/** SM count of the chip workload. */
constexpr unsigned kChipSms = 64;

/** Set-up repetitions whose median is reported as setup_s. */
constexpr unsigned kSetupRepeats = 3;

const char *const kChipKernels[] = {"srad_v1", "particle_filter"};

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::runtime_error("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::runtime_error("non-finite metric value");
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, end);
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!(out << text))
        throw std::runtime_error("cannot write " + path.string());
}

/**
 * Start a new peak-memory window: hand freed heap back to the kernel,
 * then reset the process's resident high-water mark (VmHWM) to its
 * current resident set. getrusage's ru_maxrss cannot be reset.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear_refs("/proc/self/clear_refs");
    if (!(clear_refs << "5" << std::flush))
        throw std::runtime_error("cannot reset the peak resident set "
                                 "through /proc/self/clear_refs");
}

/** Peak resident set (VmHWM) since the start or the last reset, MB. */
double
peakRssMb()
{
    std::istringstream status(readFile("/proc/self/status"));
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** SM-cycles of one job: cycles × SMs (a single-SM job counts 1). */
double
smCycles(const sim::RunStats &stats, unsigned sms)
{
    return static_cast<double>(stats.cycles) * std::max(1u, sms);
}

std::string
jobKey(const sim::SimJob &job)
{
    return sim::ExperimentEngine::cacheFileName(job);
}

// ---------------------------------------------------------------------
// Correctness accounting and golden records.
// ---------------------------------------------------------------------

/** Counts checked outputs; each mismatch is one failure. */
class Check
{
  public:
    /** @param report Print the first mismatches to stderr. */
    explicit Check(bool report = true) : _report(report) {}

    void
    expect(bool ok, const std::string &what)
    {
        ++_attempted;
        if (ok)
            return;
        if (++_failed <= 10 && _report)
            std::cerr << "regless_bench: mismatch: " << what << "\n";
    }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    bool _report;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** Expected RunStats by job key ("key<TAB>json" lines on disk). */
using Golden = std::map<std::string, sim::RunStats>;

Golden
loadGolden(const std::filesystem::path &path)
{
    Golden golden;
    std::istringstream lines(readFile(path));
    for (std::string line; std::getline(lines, line);) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            throw std::runtime_error("malformed golden line in " +
                                     path.string());
        golden[line.substr(0, tab)] = sim::fromJson(line.substr(tab + 1));
    }
    return golden;
}

void
saveGolden(const std::filesystem::path &path,
           const std::vector<std::pair<std::string, sim::RunStats>> &runs)
{
    std::string text;
    for (const auto &[key, stats] : runs)
        text += key + "\t" + sim::toJson(stats) + "\n";
    writeFile(path, text);
}

/**
 * RunStats::operator== with the cycle-skip meta-counters
 * (skippedCycles, skipEvents) left out: they count the simulator's
 * own shortcuts, not modelled behaviour, so a change to the skip
 * engine must still match the golden records.
 */
bool
sameModelledResults(sim::RunStats a, sim::RunStats b)
{
    a.skippedCycles = b.skippedCycles = 0;
    a.skipEvents = b.skipEvents = 0;
    return a == b;
}

/** Stats match the golden record for @a key. */
void
expectGolden(Check &check, const Golden &golden, const std::string &key,
             const sim::RunStats &stats)
{
    const auto it = golden.find(key);
    check.expect(it != golden.end() && sameModelledResults(it->second, stats),
                 it == golden.end() ? "no golden record for " + key
                                    : "RunStats differ for " + key);
}

void
expectText(Check &check, const std::string &expected,
           const std::string &actual, const std::string &what)
{
    if (expected == actual) {
        check.expect(true, what);
        return;
    }
    std::istringstream a(expected), b(actual);
    std::string la, lb;
    unsigned line = 1;
    while (std::getline(a, la) && std::getline(b, lb) && la == lb)
        ++line;
    check.expect(false, what + " differs from the golden text at line " +
                            std::to_string(line));
}

/** Every job of @a engine succeeded and matches its golden record. */
void
expectEngineGolden(Check &check, sim::ExperimentEngine &engine,
                   const Golden &golden)
{
    for (std::size_t id = 0; id < engine.pointsUnique(); ++id) {
        const sim::JobResult &result = engine.result(id);
        const std::string key = jobKey(engine.job(id));
        if (result.status != sim::JobStatus::Ok) {
            check.expect(false, key + " " +
                                    sim::jobStatusName(result.status) +
                                    ": " + result.error);
            continue;
        }
        expectGolden(check, golden, key, result.stats);
    }
}

struct GoldenSet
{
    Golden reportJobs;
    std::string reportText;
    Golden chipJobs;

    explicit GoldenSet(const std::filesystem::path &dir)
        : reportJobs(loadGolden(dir / "report_cold.stats")),
          reportText(readFile(dir / "report_cold.txt")),
          chipJobs(loadGolden(dir / "chip.stats"))
    {
    }
};

// ---------------------------------------------------------------------
// The build guard.
// ---------------------------------------------------------------------

/** Why a build of this type and sanitizer must not be timed, or "". */
std::string
guardProblem(const std::string &build_type, const std::string &sanitize)
{
    if (!sanitize.empty())
        return "built with REGLESS_SANITIZE=" + sanitize;
    if (build_type != "Release" && build_type != "RelWithDebInfo")
        return "build type '" + build_type +
               "' is not Release or RelWithDebInfo";
    return "";
}

std::string
thisBuildProblem()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "compiled with a sanitizer";
#else
    return guardProblem(PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
#endif
}

// ---------------------------------------------------------------------
// The report pass: every figure in registry order.
// ---------------------------------------------------------------------

struct ReportPass
{
    std::string text;
    double wall = 0.0;
    std::vector<double> figureWall;
    /** pointsUnique() before each figure, then at the end: figure f
     *  was first to request jobs [jobsBefore[f], jobsBefore[f+1]). */
    std::vector<std::size_t> jobsBefore;
};

sim::ExperimentEngine::Options
reportOptions(unsigned jobs, const std::string &cache_dir)
{
    sim::ExperimentEngine::Options options;
    options.jobs = jobs;
    options.cacheDir = cache_dir;
    options.lint = false;
    return options;
}

/**
 * Run every figure exactly as regless_report does (a blank line
 * between figures, no footer). @a before_figure runs inside each
 * figure's span and time, before the figure itself.
 */
ReportPass
runReport(sim::ExperimentEngine &engine, Spans *spans,
          const std::function<void(std::size_t)> &before_figure = {})
{
    std::ostringstream out;
    figures::FigureContext ctx{engine, out};
    ReportPass pass;
    const auto start = Clock::now();
    const auto &all = figures::allFigures();
    for (std::size_t f = 0; f < all.size(); ++f) {
        Scope scope(spans, "figures.runFigure", 0,
                    "\"figure\":" + jsonString(all[f].name));
        const auto t0 = Clock::now();
        pass.jobsBefore.push_back(engine.pointsUnique());
        if (before_figure)
            before_figure(f);
        if (f)
            out << "\n";
        figures::runFigure(all[f], ctx);
        engine.flush();
        pass.figureWall.push_back(secondsBetween(t0, Clock::now()));
    }
    pass.jobsBefore.push_back(engine.pointsUnique());
    pass.wall = secondsBetween(start, Clock::now());
    pass.text = out.str();
    return pass;
}

/** Σ SM-cycles and Σ warp instructions over the engine's jobs. */
std::pair<double, double>
engineWork(sim::ExperimentEngine &engine)
{
    double smc = 0.0, insns = 0.0;
    for (std::size_t id = 0; id < engine.pointsUnique(); ++id) {
        if (const sim::RunStats *stats = engine.tryStats(id)) {
            smc += smCycles(*stats, engine.job(id).sms);
            insns += static_cast<double>(stats->insns);
        }
    }
    return {smc, insns};
}

// ---------------------------------------------------------------------
// One job through the public calls (the replay, and the chip workload).
// ---------------------------------------------------------------------

/** Host seconds of one job's phases. */
struct JobTime
{
    double build = 0.0;
    double compile = 0.0; ///< explicit compile() (single-SM, one kernel)
    double assemble = 0.0; ///< constructor (compiles inside otherwise)
    double run = 0.0;
    double total() const { return build + compile + assemble + run; }
};

std::string
jobArgs(const sim::SimJob &job)
{
    std::ostringstream fp;
    fp << std::hex << sim::ExperimentEngine::jobFingerprint(job);
    return "\"kernel\":" + jsonString(job.kernel) + ",\"provider\":" +
           jsonString(sim::providerName(job.config.provider)) +
           ",\"sms\":" + std::to_string(job.sms) +
           ",\"fingerprint\":\"" + fp.str() + "\"";
}

std::string
runCounts(const sim::RunStats &stats, unsigned sms)
{
    return "\"sm_cycles\":" + jsonNumber(smCycles(stats, sms)) +
           ",\"insns\":" + std::to_string(stats.insns) +
           ",\"issued_slots\":" + std::to_string(stats.issuedSlots) +
           ",\"skipped_cycles\":" + std::to_string(stats.skippedCycles) +
           ",\"l1_accesses\":" + std::to_string(stats.l1Accesses) +
           ",\"dram_accesses\":" + std::to_string(stats.dramAccesses) +
           ",\"osu_accesses\":" + std::to_string(stats.osuAccesses);
}

std::vector<ir::Kernel>
buildKernels(const sim::SimJob &job)
{
    std::vector<ir::Kernel> kernels;
    if (job.config.tenants.workloads.size() >= 2) {
        for (const sim::TenantWorkload &w : job.config.tenants.workloads)
            kernels.push_back(workloads::makeRodinia(w.kernel));
    } else {
        kernels.push_back(job.builder ? job.builder()
                                      : workloads::makeRodinia(job.kernel));
    }
    return kernels;
}

/**
 * The same simulation ExperimentEngine::execute() performs, split at
 * the public calls so each phase can be timed: workloads::makeRodinia,
 * compiler::compile, the simulator constructor and run(). @a threads
 * is the multi-SM worker count (the engine uses 1).
 */
sim::RunStats
replayJob(const sim::SimJob &job, unsigned threads, Spans *spans,
          std::uint64_t id, JobTime &time)
{
    Scope scope(spans, "job", id, jobArgs(job));
    std::vector<ir::Kernel> kernels;
    {
        Scope s(spans, "workloads.build");
        Stopwatch w(time.build);
        kernels = buildKernels(job);
    }
    auto timed_run = [&](auto &simulator) {
        Scope s(spans, "sim.run");
        sim::RunStats stats;
        {
            Stopwatch w(time.run);
            stats = simulator.run();
        }
        s.setCounts(runCounts(stats, job.sms));
        return stats;
    };
    if (job.sms >= 1) {
        std::unique_ptr<sim::MultiSmSimulator> simulator;
        {
            Scope s(spans, "sim.assemble");
            Stopwatch w(time.assemble);
            simulator = std::make_unique<sim::MultiSmSimulator>(
                kernels, job.config, job.sms, threads);
        }
        return timed_run(*simulator);
    }
    std::unique_ptr<sim::GpuSimulator> simulator;
    if (kernels.size() == 1) {
        std::unique_ptr<compiler::CompiledKernel> ck;
        {
            Scope s(spans, "compiler.compile");
            Stopwatch w(time.compile);
            ck = std::make_unique<compiler::CompiledKernel>(
                compiler::compile(kernels[0], job.config.compiler));
        }
        Scope s(spans, "sim.assemble");
        Stopwatch w(time.assemble);
        simulator = std::make_unique<sim::GpuSimulator>(std::move(*ck),
                                                        job.config);
    } else {
        Scope s(spans, "sim.assemble");
        Stopwatch w(time.assemble);
        simulator = std::make_unique<sim::GpuSimulator>(kernels, job.config);
    }
    return timed_run(*simulator);
}

// ---------------------------------------------------------------------
// The chip workload's jobs.
// ---------------------------------------------------------------------

/** The timed chip jobs: each chip kernel under baseline and regless. */
std::vector<sim::SimJob>
chipJobs()
{
    std::vector<sim::SimJob> jobs;
    for (const char *kernel : kChipKernels) {
        for (const sim::ProviderKind kind :
             {sim::ProviderKind::Baseline, sim::ProviderKind::Regless}) {
            sim::SimJob job;
            job.kernel = kernel;
            job.config = sim::GpuConfig::forProvider(kind);
            job.sms = kChipSms;
            jobs.push_back(job);
        }
    }
    return jobs;
}

/** The held-out input: workloads::randomKernel(seed) at 64 SMs under
 *  baseline, then regless. */
std::vector<sim::SimJob>
seededJobs(std::uint64_t seed)
{
    std::vector<sim::SimJob> jobs;
    for (const sim::ProviderKind kind :
         {sim::ProviderKind::Baseline, sim::ProviderKind::Regless}) {
        sim::SimJob job;
        job.kernel = "random_seed" + std::to_string(seed);
        job.config = sim::GpuConfig::forProvider(kind);
        job.sms = kChipSms;
        job.builder = [seed] { return workloads::randomKernel(seed); };
        jobs.push_back(job);
    }
    return jobs;
}

/**
 * Run the seeded pair through the engine (untimed: its cost depends
 * on the seed) and check it. The golden records, when given, cover
 * the default seed; for every seed, baseline and regless must retire the same
 * instructions, and a one-SM run of each must leave the same memory
 * image. Returns the engine's stats.
 */
std::vector<sim::RunStats>
checkSeeded(Check &check, const Golden *golden, std::uint64_t seed)
{
    const std::vector<sim::SimJob> jobs = seededJobs(seed);
    sim::ExperimentEngine engine(reportOptions(static_cast<unsigned>(jobs.size()), ""));
    for (const sim::SimJob &job : jobs)
        engine.submit(job);
    engine.flush();
    std::vector<sim::RunStats> stats;
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        const sim::RunStats *s = engine.tryStats(id);
        check.expect(s != nullptr, jobKey(jobs[id]) + " failed");
        stats.push_back(s ? *s : sim::RunStats{});
        if (golden && seed == kDefaultSeed)
            expectGolden(check, *golden, jobKey(jobs[id]), stats.back());
    }
    const std::string name = jobs[0].kernel;
    check.expect(stats[0].insns == stats[1].insns,
                 name + ": baseline and regless instruction counts differ");
    const sim::GpuConfig base_cfg = jobs[0].config;
    sim::GpuSimulator a(workloads::randomKernel(seed), base_cfg);
    sim::GpuSimulator b(workloads::randomKernel(seed), jobs[1].config);
    a.run();
    b.run();
    bool same = true;
    for (Addr off = 0; off < (1u << 19) && same; off += 4)
        same = a.memory().readWord(base_cfg.sm.dataBase + off) ==
               b.memory().readWord(base_cfg.sm.dataBase + off);
    check.expect(same, name + ": baseline and regless memory images differ");
    return stats;
}

struct ChipPass
{
    std::vector<sim::RunStats> stats;
    std::vector<JobTime> times;
    std::vector<double> jobWalls; ///< each job whole, spans included

    double
    runSeconds() const
    {
        double s = 0.0;
        for (const JobTime &t : times)
            s += t.run;
        return s;
    }
};

/** Run @a jobs in order; in the trace they get job ids from
 *  @a first_id on. */
ChipPass
runChip(const std::vector<sim::SimJob> &jobs, unsigned threads,
        Spans *spans, std::uint64_t first_id = 1)
{
    ChipPass pass;
    Scope scope(spans, "workload", 0, "\"workload\":\"chip\"");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto t0 = Clock::now();
        pass.times.emplace_back();
        pass.stats.push_back(
            replayJob(jobs[i], threads, spans, first_id + i,
                      pass.times.back()));
        pass.jobWalls.push_back(secondsBetween(t0, Clock::now()));
    }
    return pass;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Check &check, const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": "
              << (check.failed() == 0 && check.attempted() > 0 ? "true"
                                                               : "false")
              << ", \"attempted\": " << check.attempted()
              << ", \"failed\": " << check.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(metrics[i].name)
                  << ": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

/**
 * wall_s, the two rates, setup_s and peak_rss_mb of one workload.
 * wall_s is the median pass: on hosts whose cores stay fast or slow
 * for seconds at a time, the fastest pass of a run depends on whether
 * the run met a fast stretch at all, while the median of every pass
 * in the window moves far less from run to run.
 */
std::vector<Metric>
endToEnd(const std::vector<double> &walls, double smc, double insns,
         double setup, double rss_mb)
{
    const double wall = median(walls);
    return {{"wall_s", wall, "s"},
            {"sim_ksmcycles_per_s", smc / 1e3 / wall, "ksmcycles/s"},
            {"sim_kinsn_per_s", insns / 1e3 / wall, "kinsn/s"},
            {"setup_s", setup, "s"},
            {"peak_rss_mb", rss_mb, "MB"}};
}

// ---------------------------------------------------------------------
// Untimed-trace workloads (end-to-end metrics).
// ---------------------------------------------------------------------

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 35.0;
    bool trace = false;
    std::filesystem::path golden;
    std::filesystem::path work;
};

/**
 * Repeat @a body (one pass) while another pass as long as the longest
 * so far still ends within @a seconds; always at least once. A run
 * therefore never overshoots its window by a whole pass.
 */
void
forSeconds(double seconds, const std::function<void()> &body)
{
    const auto start = Clock::now();
    double longest = 0.0;
    for (;;) {
        const auto t0 = Clock::now();
        body();
        longest = std::max(longest, secondsBetween(t0, Clock::now()));
        if (secondsBetween(start, Clock::now()) + longest > seconds)
            return;
    }
}

std::vector<Metric>
reportCold(const RunOptions &opt, Check &check)
{
    std::vector<double> setups;
    std::unique_ptr<GoldenSet> golden;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        golden = std::make_unique<GoldenSet>(opt.golden);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    resetPeakRss();
    std::vector<double> walls;
    double smc = 0.0, insns = 0.0;
    forSeconds(opt.seconds, [&] {
        sim::ExperimentEngine engine(reportOptions(hostThreads(), ""));
        const ReportPass pass = runReport(engine, nullptr);
        walls.push_back(pass.wall);
        expectText(check, golden->reportText, pass.text, "report_cold text");
        expectEngineGolden(check, engine, golden->reportJobs);
        std::tie(smc, insns) = engineWork(engine);
    });
    return endToEnd(walls, smc, insns, median(setups), peakRssMb());
}

/**
 * Fill a fresh cache at @a cache_dir with one cold pass at jobs=nproc,
 * in a child process, so that none of the fill's memory (its worker
 * threads' heaps above all) stays in this process. True when the
 * fill's text equals @a expected_text.
 */
bool
fillCacheInChild(const std::string &cache_dir,
                 const std::string &expected_text)
{
    std::filesystem::remove_all(cache_dir);
    std::cout.flush();
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // Die with the parent, and exit without running its exit-time
        // code or flushing its buffers a second time.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            std::_Exit(1);
        int code = 1;
        try {
            sim::ExperimentEngine engine(
                reportOptions(hostThreads(), cache_dir));
            code = runReport(engine, nullptr).text == expected_text ? 0 : 1;
        } catch (const std::exception &e) {
            std::cerr << "regless_bench: cache fill: " << e.what() << "\n";
        }
        std::_Exit(code);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        throw std::runtime_error("waitpid failed");
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<Metric>
reportWarm(const RunOptions &opt, Check &check)
{
    // Set-up: the golden records plus one cold pass that fills a fresh
    // cache, on every core: the whole of report_cold's work, done once
    // per repetition.
    const std::string cache_dir = (opt.work / "warm-cache").string();
    std::vector<double> setups;
    std::unique_ptr<GoldenSet> golden;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        golden = std::make_unique<GoldenSet>(opt.golden);
        const bool filled = fillCacheInChild(cache_dir, golden->reportText);
        setups.push_back(secondsBetween(t0, Clock::now()));
        check.expect(filled, "the cache fill failed or its text differs "
                             "from the golden text");
    }

    resetPeakRss();
    std::vector<double> walls;
    double smc = 0.0, insns = 0.0;
    forSeconds(opt.seconds, [&] {
        sim::ExperimentEngine engine(reportOptions(1, cache_dir));
        const ReportPass pass = runReport(engine, nullptr);
        walls.push_back(pass.wall);
        check.expect(engine.simulated() == 0,
                     "report_warm simulated " +
                         std::to_string(engine.simulated()) + " jobs");
        expectText(check, golden->reportText, pass.text, "report_warm text");
        expectEngineGolden(check, engine, golden->reportJobs);
        std::tie(smc, insns) = engineWork(engine);
    });
    const double rss_mb = peakRssMb();
    std::filesystem::remove_all(cache_dir);
    return endToEnd(walls, smc, insns, median(setups), rss_mb);
}

// ---------------------------------------------------------------------
// The traced run: the layer profile.
// ---------------------------------------------------------------------

/** Sums of the counts per-layer ratios are made of. */
struct Tally
{
    double run = 0.0, smc = 0.0, issued = 0.0, skipped = 0.0,
           skipEvents = 0.0, l1 = 0.0, l2 = 0.0, dram = 0.0, slots = 0.0,
           memWait = 0.0, cmWait = 0.0, osu = 0.0, osuConflicts = 0.0,
           comp = 0.0, compMatches = 0.0;

    void
    add(const sim::RunStats &s, unsigned sms, double run_s)
    {
        run += run_s;
        smc += smCycles(s, sms);
        issued += static_cast<double>(s.issuedSlots);
        skipped += static_cast<double>(s.skippedCycles);
        skipEvents += static_cast<double>(s.skipEvents);
        l1 += static_cast<double>(s.l1Accesses);
        l2 += static_cast<double>(s.l2Accesses);
        dram += static_cast<double>(s.dramAccesses);
        double stalls = 0.0;
        for (std::uint64_t n : s.stallSlots)
            stalls += static_cast<double>(n);
        slots += static_cast<double>(s.issuedSlots) + stalls;
        auto cause = [&](arch::StallCause c) {
            return static_cast<double>(
                s.stallSlots[static_cast<std::size_t>(c)]);
        };
        memWait += cause(arch::StallCause::MemPending);
        cmWait += cause(arch::StallCause::CmNotStaged) +
                  cause(arch::StallCause::CmNoCapacity);
        osu += static_cast<double>(s.osuAccesses);
        osuConflicts += static_cast<double>(s.osuBankConflicts);
        comp += static_cast<double>(s.compressorAccesses);
        compMatches += static_cast<double>(s.compressorMatches);
    }

    double nsPerSmCycle() const { return run * 1e9 / smc; }
};

/** A job replayed through the public calls, with its timing. */
struct Replayed
{
    sim::SimJob job;
    sim::RunStats stats;
    JobTime time;
};

bool
isCanonical(const sim::SimJob &job)
{
    if (job.builder || job.config.tenants.workloads.size() >= 2)
        return false;
    sim::SimJob canonical;
    canonical.kernel = job.kernel;
    canonical.config = sim::GpuConfig::forProvider(job.config.provider);
    canonical.sms = job.sms;
    return sim::ExperimentEngine::jobFingerprint(canonical) ==
           sim::ExperimentEngine::jobFingerprint(job);
}

/**
 * run() ns per SM-cycle of @a kind minus baseline's, over the
 * canonical-config (kernel, SMs) points both providers ran.
 */
double
overheadVsBaseline(const std::vector<Replayed> &jobs, sim::ProviderKind kind)
{
    std::map<std::pair<std::string, unsigned>, const Replayed *> base;
    for (const Replayed &r : jobs) {
        if (r.job.config.provider == sim::ProviderKind::Baseline &&
            isCanonical(r.job))
            base[{r.job.kernel, r.job.sms}] = &r;
    }
    Tally p, b;
    for (const Replayed &r : jobs) {
        if (r.job.config.provider != kind || !isCanonical(r.job))
            continue;
        const auto it = base.find({r.job.kernel, r.job.sms});
        if (it == base.end())
            continue;
        p.add(r.stats, r.job.sms, r.time.run);
        b.add(it->second->stats, r.job.sms, it->second->time.run);
    }
    if (p.smc == 0.0)
        throw std::runtime_error(std::string("no canonical pairs for ") +
                                 sim::providerName(kind));
    return p.nsPerSmCycle() - b.nsPerSmCycle();
}

Tally
tallyIf(const std::vector<Replayed> &jobs,
        const std::function<bool(const Replayed &)> &pick)
{
    Tally t;
    for (const Replayed &r : jobs) {
        if (pick(r))
            t.add(r.stats, r.job.sms, r.time.run);
    }
    return t;
}

/** Counts a workload's jobs share, named per workload. */
void
addCounts(std::vector<Metric> &m, const std::string &where, const Tally &t)
{
    m.push_back({"arch.skipped_frac." + where, t.skipped / t.smc, "ratio"});
    m.push_back({"arch.skip_events_per_kcycle." + where,
                 t.skipEvents * 1e3 / t.smc, "count/kcycle"});
    m.push_back({"arch.issued_per_smcycle." + where, t.issued / t.smc,
                 "count/cycle"});
    m.push_back({"mem.l2_accesses_per_kcycle." + where, t.l2 * 1e3 / t.smc,
                 "count/kcycle"});
    m.push_back({"mem.dram_accesses_per_kcycle." + where,
                 t.dram * 1e3 / t.smc, "count/kcycle"});
    m.push_back({"mem.wait_share." + where, t.memWait / t.slots, "ratio"});
}

std::uint64_t
directoryBytes(const std::filesystem::path &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return bytes;
}

/** What the traced run measures on the two report workloads. */
struct ReportProfile
{
    ReportPass traced; ///< report_cold, replay-fed
    std::uint64_t requested = 0, unique = 0;
    std::vector<Replayed> replayed; ///< in engine job order
    double storeSeconds = 0.0, writeSeconds = 0.0, diskBytes = 0.0;
    double parallelWall = 0.0; ///< report_cold at jobs=nproc
    double firstFigureWall = 0.0; ///< figure 0 alone, untraced
    std::vector<double> warmWalls;
    double warmTracedWall = 0.0, hitRatio = 0.0;
    double loadSeconds = 0.0, parseSeconds = 0.0;
    /** Per job: its cache round trip in the replay-fed pass, that is
     *  writeJson, JobCache::store and (timed again in the traced warm
     *  pass) the engine's JobCache::load, parse included. */
    std::vector<double> cacheTrip;
    /** The traced warm pass's own loads, reads and parses of every
     *  entry, which an untraced pass does not make. */
    double warmExtraSeconds = 0.0;

    /** Σ cacheTrip over jobs [first, last). */
    double
    cacheTripSeconds(std::size_t first, std::size_t last) const
    {
        double s = 0.0;
        for (std::size_t i = first; i < last; ++i)
            s += cacheTrip[i];
        return s;
    }
};

ReportProfile
profileReports(const GoldenSet &golden, const std::filesystem::path &work,
               Spans &spans, Check &check)
{
    ReportProfile p;

    // The engine's results, checked against the golden records. At
    // jobs=nproc it is quick, and its wall time is the parallel one.
    sim::ExperimentEngine ref_engine(reportOptions(hostThreads(), ""));
    const ReportPass ref = runReport(ref_engine, nullptr);
    p.parallelWall = ref.wall;
    expectText(check, golden.reportText, ref.text, "report_cold text");
    expectEngineGolden(check, ref_engine, golden.reportJobs);
    p.requested = ref_engine.pointsRequested();
    p.unique = ref_engine.pointsUnique();
    std::vector<sim::SimJob> jobs;
    for (std::size_t id = 0; id < p.unique; ++id)
        jobs.push_back(ref_engine.job(id));
    auto key = [&](std::size_t i) {
        return sim::JobCache::Key{
            jobKey(jobs[i]), sim::ExperimentEngine::jobFingerprint(jobs[i])};
    };

    // The first figure alone, untraced at jobs=1: the reference the
    // tracing overhead is measured against.
    {
        sim::ExperimentEngine engine(reportOptions(1, ""));
        std::ostringstream out;
        figures::FigureContext ctx{engine, out};
        const auto t0 = Clock::now();
        figures::runFigure(figures::allFigures().front(), ctx);
        engine.flush();
        p.firstFigureWall = secondsBetween(t0, Clock::now());
    }

    // report_cold, traced at jobs=1: before each figure, the jobs it is
    // first to request are replayed through the public calls and
    // stored in a fresh cache; the figure then runs on an engine that
    // must serve every point from that cache, and the text must not
    // change.
    const std::filesystem::path cache_dir = work / "trace-cache";
    std::filesystem::remove_all(cache_dir);
    sim::JobCache::Options cache_options;
    cache_options.dir = cache_dir.string();
    {
        sim::JobCache cache(cache_options);
        sim::ExperimentEngine engine(reportOptions(1, cache_dir.string()));
        Scope workload(&spans, "workload", 0,
                       "\"workload\":\"report_cold\"");
        p.traced = runReport(engine, &spans, [&](std::size_t f) {
            for (std::size_t i = ref.jobsBefore[f]; i < ref.jobsBefore[f + 1];
                 ++i) {
                Replayed r{jobs[i], {}, {}};
                r.stats = replayJob(r.job, 1, &spans, i + 1, r.time);
                check.expect(r.stats == ref_engine.stats(i),
                             "replayed RunStats differ from the engine's "
                             "for " + key(i).file);
                sim::JobRecord record;
                record.schema = sim::kJobCacheSchemaVersion;
                record.stats = r.stats;
                double write = 0.0, store = 0.0;
                {
                    Scope s(&spans, "sim.stats_io.write", i + 1);
                    Stopwatch w(write);
                    std::ostringstream json;
                    sim::writeJson(json, record);
                }
                {
                    Scope s(&spans, "sim.cache.store", i + 1);
                    Stopwatch w(store);
                    check.expect(cache.store(key(i), record),
                                 "cache store failed for " + key(i).file);
                }
                p.writeSeconds += write;
                p.storeSeconds += store;
                p.cacheTrip.push_back(write + store);
                p.replayed.push_back(std::move(r));
            }
        });
        check.expect(engine.simulated() == 0,
                     "the replay-fed pass simulated " +
                         std::to_string(engine.simulated()) + " jobs");
    }
    expectText(check, ref.text, p.traced.text, "replay-fed report text");
    p.diskBytes = static_cast<double>(directoryBytes(cache_dir));

    // report_warm: untraced passes, then one traced pass that also
    // times JobCache::load and stats_io parsing of every entry.
    for (unsigned i = 0; i < 5; ++i) {
        sim::ExperimentEngine engine(reportOptions(1, cache_dir.string()));
        const ReportPass pass = runReport(engine, nullptr);
        p.warmWalls.push_back(pass.wall);
        check.expect(engine.simulated() == 0, "report_warm simulated jobs");
        expectText(check, golden.reportText, pass.text, "report_warm text");
        const sim::CacheCounters &c = engine.cache().counters();
        p.hitRatio = static_cast<double>(c.hits) /
                     static_cast<double>(c.hits + c.misses);
    }
    {
        sim::JobCache cache(cache_options);
        sim::ExperimentEngine engine(reportOptions(1, cache_dir.string()));
        Scope workload(&spans, "workload", 0,
                       "\"workload\":\"report_warm\"");
        p.warmTracedWall = runReport(engine, &spans, [&](std::size_t f) {
            for (std::size_t i = ref.jobsBefore[f]; i < ref.jobsBefore[f + 1];
                 ++i) {
                Stopwatch extra(p.warmExtraSeconds);
                sim::JobRecord record;
                bool hit = false;
                double load = 0.0;
                {
                    Scope s(&spans, "sim.cache.load", i + 1);
                    Stopwatch w(load);
                    hit = cache.load(key(i), record);
                }
                p.loadSeconds += load;
                p.cacheTrip[i] += load;
                const std::string bytes = readFile(cache.entryPath(key(i)));
                {
                    Scope s(&spans, "sim.stats_io.parse", i + 1);
                    Stopwatch w(p.parseSeconds);
                    hit = sim::tryRecordFromJson(bytes, record) && hit;
                }
                check.expect(hit && record.stats == p.replayed[i].stats,
                             "cache entry does not round-trip for " +
                                 key(i).file);
            }
        }).wall;
    }
    std::filesystem::remove_all(cache_dir);
    return p;
}

/** What the traced run measures on chip. */
struct ChipProfile
{
    ChipPass traced, parallel;
    std::vector<Replayed> replayed; ///< the traced pass
    double sliceTracedWall = 0.0, sliceWall = 0.0; ///< particle_filter
};

ChipProfile
profileChip(const GoldenSet &golden, std::uint64_t seed,
            std::uint64_t first_id, Spans &spans, Check &check)
{
    const std::vector<sim::SimJob> jobs = chipJobs();
    ChipProfile p;
    p.traced = runChip(jobs, 1, &spans, first_id);
    p.parallel = runChip(jobs, hostThreads(), nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectGolden(check, golden.chipJobs, jobKey(jobs[i]),
                     p.traced.stats[i]);
        check.expect(p.parallel.stats[i] == p.traced.stats[i],
                     "chip results depend on the thread count for " +
                         jobKey(jobs[i]));
        p.replayed.push_back({jobs[i], p.traced.stats[i], p.traced.times[i]});
    }
    // The particle_filter pair again, untraced: the reference the
    // tracing overhead is measured against.
    std::vector<sim::SimJob> slice;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kernel == "particle_filter") {
            slice.push_back(jobs[i]);
            p.sliceTracedWall += p.traced.jobWalls[i];
        }
    }
    for (double wall : runChip(slice, 1, nullptr).jobWalls)
        p.sliceWall += wall;

    // The held-out seeded pair: the direct calls must agree with the
    // engine, whatever the seed.
    const std::vector<sim::SimJob> seeded_jobs = seededJobs(seed);
    const std::vector<sim::RunStats> seeded =
        checkSeeded(check, &golden.chipJobs, seed);
    const ChipPass direct = runChip(seeded_jobs, hostThreads(), &spans,
                                    first_id + jobs.size());
    for (std::size_t i = 0; i < seeded.size(); ++i) {
        check.expect(direct.stats[i] == seeded[i],
                     "engine and direct run differ for " +
                         jobKey(seeded_jobs[i]));
    }
    return p;
}

std::vector<Metric>
traced(const RunOptions &opt, Check &check)
{
    const GoldenSet golden(opt.golden);
    Spans spans;
    const ReportProfile rep = profileReports(golden, opt.work, spans, check);
    const ChipProfile chip =
        profileChip(golden, opt.seed, rep.unique + 1, spans, check);
    const std::vector<Replayed> &replayed = rep.replayed;
    std::vector<Metric> m;

    double build = 0, compile = 0, assemble = 0, job_total = 0,
           single_total = 0;
    unsigned singles = 0;
    for (const Replayed &r : replayed) {
        build += r.time.build;
        job_total += r.time.total();
        if (r.time.compile > 0.0) {
            compile += r.time.compile;
            assemble += r.time.assemble;
            single_total += r.time.total();
            ++singles;
        }
    }
    const double n = static_cast<double>(replayed.size());
    m.push_back({"workloads.build_us", build / n * 1e6, "us"});
    m.push_back({"compiler.compile_ms", compile / singles * 1e3, "ms"});
    m.push_back({"compiler.share", compile / single_total, "ratio"});
    m.push_back({"sim.assemble_ms", assemble / singles * 1e3, "ms"});
    double chip_assemble = 0.0;
    for (const Replayed &r : chip.replayed)
        chip_assemble += r.time.assemble;
    m.push_back({"sim.assemble_ms.chip",
                 chip_assemble / static_cast<double>(chip.replayed.size()) *
                     1e3,
                 "ms"});

    const Tally base = tallyIf(replayed, [](const Replayed &r) {
        return r.job.config.provider == sim::ProviderKind::Baseline;
    });
    m.push_back({"arch.ns_per_smcycle.baseline", base.nsPerSmCycle(),
                 "ns/smcycle"});
    m.push_back({"arch.ns_per_issue.baseline", base.run * 1e9 / base.issued,
                 "ns/issue"});
    for (const char *kernel : kChipKernels) {
        const Tally t = tallyIf(chip.replayed, [&](const Replayed &r) {
            return r.job.kernel == kernel;
        });
        m.push_back({std::string("arch.ns_per_smcycle.chip.") + kernel,
                     t.nsPerSmCycle(), "ns/smcycle"});
    }

    m.push_back({"regless.ns_per_smcycle_overhead.report_cold",
                 overheadVsBaseline(replayed, sim::ProviderKind::Regless),
                 "ns/smcycle"});
    m.push_back({"regless.ns_per_smcycle_overhead.chip",
                 overheadVsBaseline(chip.replayed, sim::ProviderKind::Regless),
                 "ns/smcycle"});
    const unsigned default_osu =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless)
            .regless.osuEntriesPerSm;
    const Tally sweep = tallyIf(replayed, [&](const Replayed &r) {
        const unsigned osu = r.job.config.regless.osuEntriesPerSm;
        return r.job.config.provider == sim::ProviderKind::Regless &&
               osu >= 128 && osu <= 2048 && osu != default_osu;
    });
    m.push_back({"regless.osu_sweep_ns_per_smcycle", sweep.nsPerSmCycle(),
                 "ns/smcycle"});
    const Tally osu = tallyIf(replayed, [](const Replayed &r) {
        return r.job.config.provider == sim::ProviderKind::Regless ||
               r.job.config.provider ==
                   sim::ProviderKind::ReglessNoCompressor;
    });
    m.push_back({"regless.osu_accesses_per_kcycle", osu.osu * 1e3 / osu.smc,
                 "count/kcycle"});
    m.push_back({"regless.osu_bank_conflict_ratio",
                 osu.osuConflicts / osu.osu, "ratio"});
    m.push_back({"regless.compressor_match_ratio",
                 osu.compMatches / osu.comp, "ratio"});
    m.push_back({"regless.cm_wait_share", osu.cmWait / osu.slots, "ratio"});
    for (const sim::ProviderKind kind :
         {sim::ProviderKind::Rfh, sim::ProviderKind::Rfv,
          sim::ProviderKind::CompilerRfCache, sim::ProviderKind::RegDem,
          sim::ProviderKind::ReglessNoCompressor}) {
        m.push_back({std::string("regfile.") + sim::providerName(kind) +
                         ".ns_per_smcycle_overhead",
                     overheadVsBaseline(replayed, kind), "ns/smcycle"});
    }
    const Tally all_cold =
        tallyIf(replayed, [](const Replayed &) { return true; });
    addCounts(m, "report_cold", all_cold);
    for (const char *kernel : kChipKernels) {
        addCounts(m, std::string("chip.") + kernel,
                  tallyIf(chip.replayed, [&](const Replayed &r) {
                      return r.job.kernel == kernel;
                  }));
    }
    // Only operand-storage traffic (regless staging, regdem spills)
    // reaches the L1 in this model, and particle_filter makes none, so
    // L1 accesses are reported where they occur.
    m.push_back({"mem.l1_accesses_per_kcycle.report_cold",
                 all_cold.l1 * 1e3 / all_cold.smc, "count/kcycle"});
    const Tally srad = tallyIf(chip.replayed, [](const Replayed &r) {
        return r.job.kernel == std::string("srad_v1");
    });
    m.push_back({"mem.l1_accesses_per_kcycle.chip.srad_v1",
                 srad.l1 * 1e3 / srad.smc, "count/kcycle"});

    const double warm_wall = median(rep.warmWalls);
    m.push_back({"sim.engine.dedup_ratio",
                 static_cast<double>(rep.requested) /
                     static_cast<double>(rep.unique),
                 "ratio"});
    // The replay-fed pass minus its cache round trip stands for a
    // jobs=1 cold pass; what remains beyond one is span bookkeeping.
    const double cold_wall =
        rep.traced.wall - rep.cacheTripSeconds(0, rep.unique);
    m.push_back({"sim.engine.overhead_s", cold_wall - job_total, "s"});
    m.push_back({"sim.engine.parallel_speedup", cold_wall / rep.parallelWall,
                 "x"});
    m.push_back({"sim.multi_sm.parallel_speedup",
                 chip.traced.runSeconds() / chip.parallel.runSeconds(), "x"});
    m.push_back({"sim.cache.store_us", rep.storeSeconds / n * 1e6, "us"});
    m.push_back({"sim.cache.disk_kb", rep.diskBytes / 1024.0, "kB"});
    m.push_back({"sim.stats_io.write_us", rep.writeSeconds / n * 1e6, "us"});
    m.push_back({"sim.cache.load_us", rep.loadSeconds / n * 1e6, "us"});
    m.push_back({"sim.cache.hit_ratio", rep.hitRatio, "ratio"});
    m.push_back({"sim.stats_io.parse_us", rep.parseSeconds / n * 1e6, "us"});
    m.push_back({"figures.format_s", warm_wall - rep.loadSeconds, "s"});
    const auto &all = figures::allFigures();
    for (std::size_t f = 0; f < all.size(); ++f) {
        m.push_back({std::string("figures.") + all[f].name + ".cold_s",
                     rep.traced.figureWall[f], "s"});
    }
    m.push_back({"trace.overhead_frac.report_cold",
                 (rep.traced.figureWall.front() -
                  rep.cacheTripSeconds(0, rep.traced.jobsBefore[1])) /
                         rep.firstFigureWall -
                     1,
                 "ratio"});
    m.push_back({"trace.overhead_frac.report_warm",
                 (rep.warmTracedWall - rep.warmExtraSeconds) / warm_wall - 1,
                 "ratio"});
    m.push_back({"trace.overhead_frac.chip",
                 chip.sliceTracedWall / chip.sliceWall - 1, "ratio"});

    // The trace file and each span name's self time.
    const std::filesystem::path trace_path =
        opt.work / ("trace-" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + ".json");
    std::ostringstream trace;
    spans.writeChrome(trace);
    writeFile(trace_path, trace.str());
    std::cout << "# chrome trace: " << trace_path.string() << " ("
              << spans.spans().size() << " spans)\n";
    for (const auto &[name, self] : spans.selfSeconds())
        std::cout << "# self time " << name << ": " << self << " s\n";
    return m;
}

// ---------------------------------------------------------------------
// Golden recording and the self-test.
// ---------------------------------------------------------------------

void
recordGolden(const std::filesystem::path &dir)
{
    std::filesystem::create_directories(dir);
    sim::ExperimentEngine engine(reportOptions(hostThreads(), ""));
    const ReportPass pass = runReport(engine, nullptr);
    std::vector<std::pair<std::string, sim::RunStats>> runs;
    for (std::size_t id = 0; id < engine.pointsUnique(); ++id)
        runs.emplace_back(jobKey(engine.job(id)), engine.stats(id));
    saveGolden(dir / "report_cold.stats", runs);
    writeFile(dir / "report_cold.txt", pass.text);

    const std::vector<sim::SimJob> jobs = chipJobs();
    const ChipPass chip_pass = runChip(jobs, hostThreads(), nullptr);
    runs.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        runs.emplace_back(jobKey(jobs[i]), chip_pass.stats[i]);
    Check parity;
    const std::vector<sim::SimJob> seeded = seededJobs(kDefaultSeed);
    const std::vector<sim::RunStats> seeded_stats =
        checkSeeded(parity, nullptr, kDefaultSeed);
    if (parity.failed())
        throw std::runtime_error("the seeded kernel fails its checks");
    for (std::size_t i = 0; i < seeded.size(); ++i)
        runs.emplace_back(jobKey(seeded[i]), seeded_stats[i]);
    saveGolden(dir / "chip.stats", runs);
    std::cout << "recorded " << engine.pointsUnique() << " report jobs and "
              << runs.size() << " chip jobs in " << dir.string() << "\n";
}

/**
 * Shows that the golden check catches one perturbed counter, and
 * counts it as a failure, while the cycle-skip meta-counters stay
 * exempt; and that the build guard refuses Debug and sanitizer builds.
 */
int
selftest(const std::filesystem::path &golden_dir)
{
    Check outcome;
    const Golden golden = loadGolden(golden_dir / "report_cold.stats");
    sim::ExperimentEngine engine(reportOptions(1, ""));
    const auto id = engine.submit("hotspot", sim::ProviderKind::Baseline);
    const std::string key = jobKey(engine.job(id));
    const sim::RunStats &stats = engine.stats(id);

    auto failures = [&](const Golden &g) {
        Check check(/*report=*/false);
        expectGolden(check, g, key, stats);
        return check.failed();
    };
    outcome.expect(failures(golden) == 0, "unmodified golden record passes");
    Golden perturbed = golden;
    perturbed.at(key).l1Accesses += 1;
    outcome.expect(failures(perturbed) == 1,
                   "one perturbed counter (l1Accesses) is one failure");
    Golden skip_only = golden;
    skip_only.at(key).skippedCycles += 1;
    skip_only.at(key).skipEvents += 1;
    outcome.expect(failures(skip_only) == 0,
                   "cycle-skip meta-counters are exempt");

    outcome.expect(!guardProblem("Debug", "").empty(),
                   "guard refuses a Debug build");
    outcome.expect(!guardProblem("RelWithDebInfo", "address").empty(),
                   "guard refuses a sanitizer build");
    outcome.expect(guardProblem("RelWithDebInfo", "").empty() &&
                       guardProblem("Release", "").empty(),
                   "guard accepts optimized builds");
    std::cout << "selftest: " << outcome.attempted() - outcome.failed()
              << "/" << outcome.attempted() << " checks passed\n";
    return outcome.failed() ? 1 : 0;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "regless_bench: " << problem << "\n"
              << "usage: regless_bench --workload report_cold|report_warm "
                 "--seed N --seconds S --trace 0|1 --golden DIR --work DIR\n"
              << "       regless_bench --record-golden --golden DIR\n"
              << "       regless_bench --selftest --golden DIR\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        RunOptions opt;
        bool record = false, self = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace")
                opt.trace = value() != "0";
            else if (arg == "--golden")
                opt.golden = value();
            else if (arg == "--work")
                opt.work = value();
            else if (arg == "--record-golden")
                record = true;
            else if (arg == "--selftest")
                self = true;
            else
                usage("unknown argument " + arg);
        }
        if (opt.golden.empty())
            usage("--golden is required");
        if (self)
            return selftest(opt.golden);
        if (const std::string problem = thisBuildProblem();
            !problem.empty()) {
            std::cerr << "regless_bench: refusing to time this build: "
                      << problem << "\n";
            return 3;
        }
        if (record) {
            recordGolden(opt.golden);
            return 0;
        }
        if (opt.work.empty())
            usage("--work is required");
        if (opt.workload != "report_cold" && opt.workload != "report_warm")
            usage("unknown workload '" + opt.workload + "'");
        std::filesystem::create_directories(opt.work);

        Check check;
        std::vector<Metric> metrics;
        if (opt.trace) {
            metrics = traced(opt, check);
        } else {
            metrics = opt.workload == "report_cold" ? reportCold(opt, check)
                                                    : reportWarm(opt, check);
            // The held-out input, after the timed work: its cost
            // depends on the seed.
            const Golden chip_golden = loadGolden(opt.golden / "chip.stats");
            checkSeeded(check, &chip_golden, opt.seed);
        }
        printResult(check, metrics);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "regless_bench: fatal: " << e.what() << "\n";
        return 1;
    }
}
