#include "harness/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/flight_recorder.hh"
#include "base/host_clock.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/subprocess.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "harness/sweep_journal.hh"
#include "obs/host_profiler.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/postmortem.hh"
#include "obs/progress.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_registry.hh"
#include "obs/trace_session.hh"
#include "trace/fsb_capture.hh"
#include "trace/phase_cluster.hh"
#include "trace/sampled_replay.hh"
#include "workloads/workload_factory.hh"

namespace cosim {

namespace {

/** Everything one sweep cell (or one workload's merged cells) produces. */
struct CellOutput
{
    obs::ManifestWorkload mw;
    std::vector<double> series;
    std::vector<SweepPoint> points;

    /** Cell outcome: true when every attempt failed. The manifest
     * entry (mw.status / mw.attempts / mw.error) carries the detail. */
    bool failed = false;

    /** Times the guest executed to produce this output. */
    std::uint64_t guestExecutions = 0;

    /** Stream fingerprint for the digest manifest (when observed). @{ */
    bool hasDigest = false;
    std::uint64_t streamTxns = 0;
    std::uint64_t streamDigest = 0;
    /** @} */

    /** Capture/replay bookkeeping for the run manifest. @{ */
    std::uint64_t captureTxns = 0;
    std::uint64_t captureBytes = 0;
    double captureSeconds = 0.0;
    std::uint64_t replayTxns = 0;
    std::uint64_t replayBytes = 0;
    double replaySeconds = 0.0;
    /** @} */

    /** Raw CB sample series of the first configuration; the input
     * --plan-out clusters into a sampling plan. */
    std::vector<Sample> cbSamples;
};

/** Stream-header provenance for a capture of @p name on @p platform. */
FsbStreamMeta
captureMeta(const std::string& name, const PlatformParams& platform,
            const BenchOptions& opts)
{
    FsbStreamMeta meta;
    meta.workload = name;
    meta.platform = platform.name;
    meta.nCores = platform.nCores;
    meta.seed = opts.seed;
    meta.scale = opts.scale;
    return meta;
}

void
checkVerified(const RunResult& result, const std::string& name,
              const PlatformParams& platform, const BenchOptions& opts)
{
    if (result.verified)
        return;
    if (opts.strictVerify) {
        fatal("%s failed self-verification on %s", name.c_str(),
              platform.name.c_str());
    }
    warn("%s failed self-verification on %s", name.c_str(),
         platform.name.c_str());
}

void
fillWorkloadResult(CellOutput& cell, const std::string& name,
                   const RunResult& result)
{
    cell.mw.name = name;
    cell.mw.totalInsts = result.totalInsts;
    cell.mw.hostSeconds = result.hostSeconds;
    cell.mw.simMips = result.simMips();
    cell.mw.verified = result.verified;
    cell.mw.replayedFrom = result.replayedFrom;
}

/** Append one emulated configuration's final counters to @p cell. */
void
collectEmulator(const LlcView& dh, const std::string& wname,
                unsigned n_cores, CellOutput& cell)
{
    LlcResults llc = dh.results();

    SweepPoint point;
    point.workload = wname;
    point.nCores = n_cores;
    point.llcSize = dh.params().llc.size;
    point.lineSize = dh.params().llc.lineSize;
    point.llcAccesses = llc.accesses;
    point.llcMisses = llc.misses;
    point.insts = llc.insts;
    cell.series.push_back(point.mpki());
    cell.points.push_back(point);
    cell.mw.mpkiPerConfig.push_back(point.mpki());
}

/** Keep the CB 500 us MPKI series of @p dh (the first configuration). */
void
collectSamples(const LlcView& dh, CellOutput& cell)
{
    cell.cbSamples = dh.samples();
    for (const Sample& s : cell.cbSamples) {
        cell.mw.seriesTimeUs.push_back(s.timeUs);
        cell.mw.seriesMpki.push_back(s.mpki());
    }
}

/** Relative error of @p est against reference @p full. */
double
relErr(double est, double full)
{
    if (full == 0.0)
        return est == 0.0 ? 0.0 : 1.0;
    return std::abs(est - full) / std::abs(full);
}

/** Cluster @p samples into a plan whose window geometry matches the
 * sweep's CB configuration (the replay gate recomputes windows from the
 * plan, so the two must agree). */
SamplingPlan
makePlan(const std::vector<Sample>& samples, const std::string& name,
         const ControlBlockParams& cb, const BenchOptions& opts)
{
    PhaseClusterParams pc;
    pc.seed = opts.seed;
    pc.warmupWindows = opts.warmupWindows;
    if (opts.maxPhases != 0) {
        pc.maxPhases = opts.maxPhases;
    } else {
        // Auto-scale the phase cap as ~sqrt of the series length: a
        // fine sample period decomposes the run into many more windows,
        // and a fixed cap would lump heterogeneous windows into one
        // phase whose single representative misestimates the mean.
        const double n = static_cast<double>(samples.size());
        pc.maxPhases = static_cast<unsigned>(std::clamp(
            std::sqrt(n) + 0.5, 6.0, 24.0));
    }
    SamplingPlan plan = clusterPhases(samples, name, pc);
    plan.samplePeriodUs = static_cast<double>(cb.samplePeriodUs);
    plan.coreFreqGhz = cb.coreFreqGhz;
    return plan;
}

/**
 * Freeze @p cosim's component stats into the global registry under
 * @p prefix, so every cell's counters survive -- not just the final
 * rig's live view.
 */
void
snapshotCellStats(const CoSimulation& cosim, const std::string& prefix)
{
    obs::StatsRegistry local;
    cosim.registerStats(local);
    obs::StatsRegistry::global().addSnapshotOf(local, prefix);
}

/** Record a sealed capture's stream/overhead numbers into @p cell. */
void
noteCapture(CellOutput& cell, FsbStreamWriter& writer,
            double encode_seconds)
{
    cell.hasDigest = true;
    cell.streamTxns = writer.txnCount();
    cell.streamDigest = writer.digest();
    cell.captureTxns = writer.txnCount();
    cell.captureBytes = writer.encodedBytes();
    cell.captureSeconds = encode_seconds;
    obs::HostProfiler::global().accumulate("capture.encode",
                                           encode_seconds);
}

/** Record a finished replay's stream numbers into @p cell. */
void
noteReplay(CellOutput& cell, const ReplayResult& details)
{
    cell.replayTxns = details.txns;
    cell.replayBytes = details.streamBytes;
    cell.replaySeconds = details.seconds;
}

void
warnStreamWorkload(const FsbStreamMeta& meta, const std::string& source,
                   const std::string& expected)
{
    if (meta.workload != expected) {
        warn("replay stream %s records workload '%s', expected '%s'",
             source.c_str(), meta.workload.c_str(), expected.c_str());
    }
}

/** Last non-empty line of @p text (child stderr -> cell error). */
std::string
lastLine(const std::string& text)
{
    const std::size_t end = text.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return "";
    const std::size_t nl = text.rfind('\n', end);
    const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
    return text.substr(start, end - start + 1);
}

/** Slurp @p path. @return false when it cannot be opened. */
bool
readWholeFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/**
 * An isolated cell's child process failed: non-zero exit, crash signal,
 * or shot by the silence watchdog. Carries the decoded SubprocessResult
 * so the guard can journal *how* the cell ended and write a postmortem
 * with the child's decoded signal and stderr tail.
 */
class CellProcessError : public std::runtime_error
{
  public:
    explicit CellProcessError(const SubprocessResult& r)
        : std::runtime_error(describe(r)), result(r)
    {}

    SubprocessResult result;

  private:
    static std::string
    describe(const SubprocessResult& r)
    {
        std::string msg = "cell process " + r.describe();
        const std::string tail = lastLine(r.stderrTail);
        if (!tail.empty())
            msg += ": " + tail;
        return msg;
    }
};

/**
 * Result-artifact path for @p label under "<outDir>/cells/". Slashes
 * in per-config labels ("PLSA/64MB") flatten to underscores so every
 * cell is one file in one flat directory.
 */
std::string
cellArtifactPath(const BenchOptions& opts, const std::string& label)
{
    std::string file = label;
    for (char& c : file) {
        if (c == '/')
            c = '_';
    }
    return opts.outDir + "/cells/" + file + ".cell.json";
}

std::string
doubleArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += obs::json::number(values[i]);
    }
    return out + "]";
}

/**
 * Serialize everything a finished cell produced (cosim-cell-result/1):
 * the manifest entry, figure series/points, stream bookkeeping, CB
 * samples, and the cell's frozen "cell/<label>/..." stats groups out
 * of the global registry. This is both the isolation wire format
 * (--run-cell child -> parent) and the journal's durable artifact
 * (--resume re-loads it instead of re-running the cell), so it must
 * round-trip exactly: integers are written as decimals
 * (std::to_string, exact), doubles through json::number (shortest
 * round-trip-safe), and the one value that cannot survive a JSON
 * double at all -- the 64-bit stream digest -- rides as a decimal
 * string.
 */
std::string
renderCellResult(const CellOutput& cell, const std::string& stats_prefix)
{
    using obs::json::number;
    using obs::json::quote;

    std::string out = "{\n";
    out += "\"schema\":\"cosim-cell-result/1\",\n";

    const obs::ManifestWorkload& w = cell.mw;
    out += "\"workload\":{\"name\":" + quote(w.name) +
           ",\"insts\":" + std::to_string(w.totalInsts) +
           ",\"host_seconds\":" + number(w.hostSeconds) +
           ",\"sim_mips\":" + number(w.simMips) +
           ",\"verified\":" + (w.verified ? "true" : "false") +
           ",\"status\":" + quote(w.status) +
           ",\"attempts\":" + std::to_string(w.attempts) +
           ",\"error\":" + quote(w.error) +
           ",\"replayed_from\":" + quote(w.replayedFrom) +
           ",\"mpki_per_config\":" + doubleArray(w.mpkiPerConfig) +
           ",\"series_time_us\":" + doubleArray(w.seriesTimeUs) +
           ",\"series_mpki\":" + doubleArray(w.seriesMpki);
    if (w.sampling.active) {
        const obs::ManifestSampling& s = w.sampling;
        out += ",\"sampling\":{\"intervals\":" +
               std::to_string(s.intervals) +
               ",\"total_windows\":" + std::to_string(s.totalWindows) +
               ",\"warmup_quanta\":" + std::to_string(s.warmupQuanta) +
               ",\"coverage\":" + number(s.coverage) +
               ",\"has_error\":" + (s.hasError ? "true" : "false") +
               ",\"err\":" +
               doubleArray({s.errCpi, s.errMpki, s.errApki, s.errDram}) +
               ",\"est\":" +
               doubleArray({s.estCpi, s.estMpki, s.estApki}) +
               ",\"full\":" +
               doubleArray({s.fullCpi, s.fullMpki, s.fullApki}) + "}";
    }
    out += "},\n";

    out += std::string("\"failed\":") +
           (cell.failed ? "true" : "false") +
           ",\"guest_executions\":" +
           std::to_string(cell.guestExecutions) + ",\n";
    out += "\"series\":" + doubleArray(cell.series) + ",\n";

    out += "\"points\":[";
    for (std::size_t i = 0; i < cell.points.size(); ++i) {
        const SweepPoint& p = cell.points[i];
        if (i)
            out += ",";
        out += "\n {\"workload\":" + quote(p.workload) +
               ",\"cores\":" + std::to_string(p.nCores) +
               ",\"llc_size\":" + std::to_string(p.llcSize) +
               ",\"line_size\":" + std::to_string(p.lineSize) +
               ",\"accesses\":" + std::to_string(p.llcAccesses) +
               ",\"misses\":" + std::to_string(p.llcMisses) +
               ",\"insts\":" + std::to_string(p.insts) + "}";
    }
    out += "],\n";

    if (cell.hasDigest) {
        out += "\"digest\":{\"txns\":" +
               std::to_string(cell.streamTxns) + ",\"value\":" +
               quote(std::to_string(cell.streamDigest)) + "},\n";
    }
    out += "\"capture\":{\"txns\":" + std::to_string(cell.captureTxns) +
           ",\"bytes\":" + std::to_string(cell.captureBytes) +
           ",\"seconds\":" + number(cell.captureSeconds) + "},\n";
    out += "\"replay\":{\"txns\":" + std::to_string(cell.replayTxns) +
           ",\"bytes\":" + std::to_string(cell.replayBytes) +
           ",\"seconds\":" + number(cell.replaySeconds) + "},\n";

    out += "\"cb_samples\":[";
    for (std::size_t i = 0; i < cell.cbSamples.size(); ++i) {
        const Sample& s = cell.cbSamples[i];
        if (i)
            out += ",";
        out += "[" + number(s.timeUs) + "," + std::to_string(s.insts) +
               "," + std::to_string(s.cycles) + "," +
               std::to_string(s.accesses) + "," +
               std::to_string(s.misses) + "]";
    }
    out += "],\n";

    // The cell's frozen stats namespaces, so the parent's (or a
    // resumed run's) stats dump matches an in-process run's exactly.
    out += "\"stats\":{";
    obs::StatsRegistry& registry = obs::StatsRegistry::global();
    bool first_group = true;
    for (const std::string& gname : registry.groupNames()) {
        if (gname.rfind(stats_prefix, 0) != 0)
            continue;
        const stats::Group* group = registry.find(gname);
        if (group == nullptr)
            continue;
        if (!first_group)
            out += ",";
        first_group = false;
        out += "\n " + quote(gname) + ":{";
        bool first_stat = true;
        for (const auto& stat : group->collect()) {
            if (!first_stat)
                out += ",";
            first_stat = false;
            out += quote(stat.first) + ":" + number(stat.second);
        }
        out += "}";
    }
    out += first_group ? "}\n" : "\n}\n";
    out += "}\n";
    return out;
}

/** Typed field access with zero-value defaults (parseCellResult). @{ */
double
numField(const obs::json::Value& obj, const char* key)
{
    const obs::json::Value* v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->num : 0.0;
}

std::uint64_t
u64Field(const obs::json::Value& obj, const char* key)
{
    const obs::json::Value* v = obj.find(key);
    if (v == nullptr)
        return 0;
    if (v->isNumber())
        return static_cast<std::uint64_t>(v->num);
    if (v->isString())
        return std::strtoull(v->str.c_str(), nullptr, 10);
    return 0;
}

std::string
strField(const obs::json::Value& obj, const char* key)
{
    const obs::json::Value* v = obj.find(key);
    return v != nullptr && v->isString() ? v->str : std::string();
}

bool
boolField(const obs::json::Value& obj, const char* key)
{
    const obs::json::Value* v = obj.find(key);
    return v != nullptr && v->isBool() && v->boolean;
}

std::vector<double>
arrayField(const obs::json::Value& obj, const char* key)
{
    std::vector<double> out;
    const obs::json::Value* v = obj.find(key);
    if (v == nullptr || !v->isArray())
        return out;
    out.reserve(v->arr.size());
    for (const obs::json::Value& e : v->arr)
        out.push_back(e.num);
    return out;
}
/** @} */

/**
 * Parse a cosim-cell-result/1 document back into a CellOutput and
 * re-register its embedded stats namespaces as frozen groups -- the
 * same shape snapshotCellStats leaves behind for an in-process cell.
 */
bool
parseCellResult(const std::string& text, CellOutput* out,
                std::string* error)
{
    obs::json::Value root;
    if (!obs::json::parse(text, root, error))
        return false;
    if (!root.isObject()) {
        *error = "not a JSON object";
        return false;
    }
    if (strField(root, "schema") != "cosim-cell-result/1") {
        *error = "unexpected schema '" + strField(root, "schema") + "'";
        return false;
    }
    const obs::json::Value* w = root.find("workload");
    if (w == nullptr || !w->isObject()) {
        *error = "missing workload object";
        return false;
    }

    CellOutput cell;
    cell.mw.name = strField(*w, "name");
    cell.mw.totalInsts = u64Field(*w, "insts");
    cell.mw.hostSeconds = numField(*w, "host_seconds");
    cell.mw.simMips = numField(*w, "sim_mips");
    cell.mw.verified = boolField(*w, "verified");
    cell.mw.status = strField(*w, "status");
    cell.mw.attempts = u64Field(*w, "attempts");
    cell.mw.error = strField(*w, "error");
    cell.mw.replayedFrom = strField(*w, "replayed_from");
    cell.mw.mpkiPerConfig = arrayField(*w, "mpki_per_config");
    cell.mw.seriesTimeUs = arrayField(*w, "series_time_us");
    cell.mw.seriesMpki = arrayField(*w, "series_mpki");
    if (const obs::json::Value* s = w->find("sampling")) {
        obs::ManifestSampling& ms = cell.mw.sampling;
        ms.active = true;
        ms.intervals = u64Field(*s, "intervals");
        ms.totalWindows = u64Field(*s, "total_windows");
        ms.warmupQuanta = u64Field(*s, "warmup_quanta");
        ms.coverage = numField(*s, "coverage");
        ms.hasError = boolField(*s, "has_error");
        const std::vector<double> err = arrayField(*s, "err");
        const std::vector<double> est = arrayField(*s, "est");
        const std::vector<double> full = arrayField(*s, "full");
        if (err.size() == 4) {
            ms.errCpi = err[0];
            ms.errMpki = err[1];
            ms.errApki = err[2];
            ms.errDram = err[3];
        }
        if (est.size() == 3) {
            ms.estCpi = est[0];
            ms.estMpki = est[1];
            ms.estApki = est[2];
        }
        if (full.size() == 3) {
            ms.fullCpi = full[0];
            ms.fullMpki = full[1];
            ms.fullApki = full[2];
        }
    }

    cell.failed = boolField(root, "failed");
    cell.guestExecutions = u64Field(root, "guest_executions");
    cell.series = arrayField(root, "series");
    if (const obs::json::Value* pts = root.find("points")) {
        for (const obs::json::Value& pv : pts->arr) {
            SweepPoint p;
            p.workload = strField(pv, "workload");
            p.nCores = static_cast<unsigned>(u64Field(pv, "cores"));
            p.llcSize = u64Field(pv, "llc_size");
            p.lineSize =
                static_cast<std::uint32_t>(u64Field(pv, "line_size"));
            p.llcAccesses = u64Field(pv, "accesses");
            p.llcMisses = u64Field(pv, "misses");
            p.insts = u64Field(pv, "insts");
            cell.points.push_back(std::move(p));
        }
    }
    if (const obs::json::Value* d = root.find("digest")) {
        cell.hasDigest = true;
        cell.streamTxns = u64Field(*d, "txns");
        cell.streamDigest = u64Field(*d, "value");
    }
    if (const obs::json::Value* c = root.find("capture")) {
        cell.captureTxns = u64Field(*c, "txns");
        cell.captureBytes = u64Field(*c, "bytes");
        cell.captureSeconds = numField(*c, "seconds");
    }
    if (const obs::json::Value* r = root.find("replay")) {
        cell.replayTxns = u64Field(*r, "txns");
        cell.replayBytes = u64Field(*r, "bytes");
        cell.replaySeconds = numField(*r, "seconds");
    }
    if (const obs::json::Value* cb = root.find("cb_samples")) {
        for (const obs::json::Value& sv : cb->arr) {
            if (!sv.isArray() || sv.arr.size() != 5)
                continue;
            Sample s;
            s.timeUs = sv.arr[0].num;
            s.insts = static_cast<InstCount>(sv.arr[1].num);
            s.cycles = static_cast<Cycles>(sv.arr[2].num);
            s.accesses = static_cast<std::uint64_t>(sv.arr[3].num);
            s.misses = static_cast<std::uint64_t>(sv.arr[4].num);
            cell.cbSamples.push_back(s);
        }
    }

    if (const obs::json::Value* groups = root.find("stats")) {
        for (const auto& g : groups->obj) {
            stats::Group group(g.first);
            group.reserve(0, g.second.obj.size());
            for (const auto& stat : g.second.obj) {
                const double value = stat.second.num;
                group.add(stat.first, [value] { return value; });
            }
            obs::StatsRegistry::global().add(std::move(group));
        }
    }

    *out = std::move(cell);
    return true;
}

/**
 * Fingerprint of everything that determines what a sweep's cells
 * compute, so --resume refuses to mix two different sweeps' journals.
 * Host-side knobs (--jobs, timeouts, telemetry) are deliberately
 * excluded: they change how cells are scheduled, not what they
 * produce, and a resume routinely runs with different ones.
 */
std::uint64_t
sweepConfigDigest(const std::string& figure_id,
                  const PlatformParams& platform, const BenchOptions& opts,
                  const std::vector<std::string>& ticks)
{
    std::string key = figure_id;
    key += '|';
    key += platform.name;
    key += '|';
    key += std::to_string(platform.nCores);
    key += '|';
    key += obs::json::number(opts.scale);
    key += '|';
    key += std::to_string(opts.seed);
    key += '|';
    key += toString(opts.cells);
    key += '|';
    key += opts.replayBase;
    key += '|';
    key += opts.planBase;
    for (const std::string& w : opts.workloads) {
        key += '|';
        key += w;
    }
    for (const std::string& t : ticks) {
        key += '|';
        key += t;
    }
    return fnv1a64(key.data(), key.size());
}

/**
 * Build the child's argv from the sweep's own: keep everything that
 * shapes what the cell computes, strip everything that must stay a
 * parent concern -- recursion guards (--isolate-cells / --journal /
 * --resume), the fault plan (nth counters are per process; the parent
 * translates cell.proc.* into an explicit --self-destruct order),
 * scheduling, and telemetry sinks -- then append the cell order.
 */
std::vector<std::string>
childArgv(const BenchOptions& opts, const std::string& label,
          const std::string& result_path)
{
    static const char* const kStripPrefixes[] = {
        "--journal=",       "--resume=",      "--faults=",
        "--jobs=",          "--retry-cells=", "--cell-timeout=",
        "--progress-file=", "--metrics=",     "--trace=",
        "--stats=",         "--manifest=",    "--plan-out=",
    };
    std::vector<std::string> argv;
    argv.reserve(opts.selfArgv.size() + 2);
    for (const std::string& arg : opts.selfArgv) {
        if (arg == "--isolate-cells" || arg == "--journal" ||
            arg == "--keep-going" || arg == "--progress") {
            continue;
        }
        bool strip = false;
        for (const char* prefix : kStripPrefixes) {
            if (arg.rfind(prefix, 0) == 0) {
                strip = true;
                break;
            }
        }
        if (!strip)
            argv.push_back(arg);
    }
    argv.push_back("--run-cell=" + label);
    argv.push_back("--cell-result=" + result_path);
    return argv;
}

/** Crash-safety context threaded through the guarded cells. */
struct SweepLedger
{
    /** Write-ahead journal (null = journaling off). */
    SweepJournal* journal = nullptr;
    /** Verified results loaded from a resumed journal, by cell label
     * (null = not resuming). */
    const std::map<std::string, CellOutput>* resumed = nullptr;
    /** Count of cells short-circuited from @ref resumed. */
    std::atomic<std::uint64_t>* skipped = nullptr;
};

/**
 * One isolated attempt: re-execute this binary with --run-cell=<label>
 * and decode how the child ended. The heartbeat pipe keeps the live
 * progress view ticking, and --cell-timeout becomes a real watchdog --
 * a child silent past the budget is SIGKILLed, not merely marked
 * failed after the fact. Success means the child serialized its
 * CellOutput to the result artifact; anything else throws
 * CellProcessError into the retry loop.
 */
CellOutput
runIsolatedCell(const std::string& label, const BenchOptions& opts,
                obs::SweepProgress* progress, std::size_t cell_idx,
                obs::HeartbeatSlot* slot, SweepJournal* journal,
                unsigned attempt_no)
{
    const std::string artifact = cellArtifactPath(opts, label);

    SubprocessOptions sp;
    sp.argv = childArgv(opts, label, artifact);
    // cell.proc.* fire in the *parent's* injector (the child never
    // sees --faults, so sweep-wide nth counting stays in one process)
    // and turn into an explicit order the child obeys at startup.
    if (faultPending("cell.proc.crash")) {
        sp.argv.push_back("--self-destruct=segv");
    } else if (faultPending("cell.proc.stall")) {
        const double secs =
            opts.cellTimeout > 0.0 ? opts.cellTimeout * 1.5 : 0.25;
        sp.argv.push_back(strFormat("--self-destruct=stall:%.3f", secs));
    }
    sp.silenceTimeout = opts.cellTimeout;
    sp.heartbeatPipe = true;
    if (slot != nullptr) {
        sp.onHeartbeat = [slot](std::uint64_t) { slot->pulse(); };
    }
    sp.onSpawn = [&](int pid) {
        if (journal != nullptr)
            journal->cellRunning(label, attempt_no, pid);
        if (progress != nullptr)
            progress->cellSpawned(cell_idx, pid);
    };

    SubprocessResult r = runSubprocess(sp);
    if (obs::metrics::enabled()) {
        static const obs::metrics::Histogram rss_kb =
            obs::metrics::histogram("sweep.cell_rss_kb",
                                    "isolated cell child peak RSS (KB)");
        rss_kb.record(r.maxRssKb);
    }
    if (!r.ok()) {
        if (progress != nullptr &&
            r.end != SubprocessResult::End::Exited) {
            progress->cellKilled(cell_idx, r.pid, r.describe());
        }
        throw CellProcessError(r);
    }

    std::string text;
    if (!readWholeFile(artifact, &text))
        throw std::runtime_error("cell result missing: " + artifact);
    CellOutput cell;
    std::string err;
    if (!parseCellResult(text, &cell, &err)) {
        throw std::runtime_error("cell result " + artifact + ": " + err);
    }
    return cell;
}

/**
 * Run one sweep cell behind the failure-isolation boundary:
 *
 *  - retries: @p attempt runs up to opts.retryCells + 1 times; the
 *    attempt number is passed in so callers can rebuild a poisoned rig
 *  - fault points: "cell.throw" (throws FaultInjected) and "cell.hang"
 *    (naps past the watchdog) fire here, inside the guarded window
 *  - watchdog: with --cell-timeout, an attempt is marked failed when
 *    its heartbeat was *silent* longer than the budget (so a slow but
 *    beating cell is never killed while a wedged one still is); when
 *    no heartbeat exists -- telemetry off, or a path that never beats,
 *    like a serial replay -- the budget bounds total wall time as
 *    before. The check is cooperative (post-hoc), matching the repo's
 *    no-detached-threads rule: a cell stuck in a non-returning syscall
 *    still needs an external kill, but every in-simulator stall is
 *    caught on completion
 *  - telemetry: cell lifecycle events flow into @p progress (when
 *    non-null, with @p cell_idx addressing this cell's row), the
 *    flight recorder gets attempt markers, and every failed attempt
 *    drops "<outDir>/postmortem.json" naming the cell and -- via the
 *    fault injector's site report -- what was injected
 *  - stats hygiene: a failed attempt's @p stats_prefix namespace is
 *    dropped from the global registry, so run artifacts never carry a
 *    half-populated cell
 *
 * Success after a retry reports status "retried"; exhausted attempts
 * report a CellOutput with failed=true and the last error recorded.
 *
 * Crash safety (harness/sweep_journal.hh) layers on top:
 *
 *  - with --isolate-cells, each attempt runs in a forked child via
 *    runIsolatedCell, so a crash or wedge takes down the child only;
 *    a process death surfaces here as CellProcessError and rides the
 *    same retry loop, with the decoded signal and the child's stderr
 *    tail landing in the postmortem
 *  - with a ledger journal, every state transition is journaled
 *    (planned / running / done / failed) and a successful cell's
 *    result is persisted as a digest-fingerprinted artifact that
 *    --resume verifies and loads instead of re-running the cell
 */
CellOutput
runGuardedCell(const std::string& label, const std::string& stats_prefix,
               const BenchOptions& opts, const SweepLedger& ledger,
               obs::SweepProgress* progress, std::size_t cell_idx,
               const std::function<CellOutput(unsigned,
                                              obs::HeartbeatSlot*)>& attempt)
{
    // --resume: a journaled result that verified at load time replaces
    // the whole cell (its stats namespaces were re-registered then).
    if (ledger.resumed != nullptr) {
        auto it = ledger.resumed->find(label);
        if (it != ledger.resumed->end()) {
            if (ledger.journal != nullptr)
                ledger.journal->resumeSkip(label);
            if (ledger.skipped != nullptr)
                ledger.skipped->fetch_add(1, std::memory_order_relaxed);
            if (progress != nullptr)
                progress->cellResumeSkipped(cell_idx);
            if (obs::metrics::enabled()) {
                static const obs::metrics::Counter resume_skipped =
                    obs::metrics::counter(
                        "sweep.resume_skipped",
                        "cells loaded from a resumed journal instead "
                        "of re-run");
                resume_skipped.inc();
            }
            return it->second;
        }
    }
    if (ledger.journal != nullptr)
        ledger.journal->cellPlanned(label);

    obs::HeartbeatSlot* slot =
        progress != nullptr ? progress->slot(cell_idx) : nullptr;
    const unsigned max_attempts = opts.retryCells + 1;
    std::string last_error;
    double last_secs = 0.0;
    JournalExit last_exit;
    for (unsigned a = 1; a <= max_attempts; ++a) {
        obs::setPostmortemContext(label, a);
        FlightRecorder::setThreadLabel("cell/" + label);
        FlightRecorder::note(FrKind::CellAttempt, "sweep.cell", a,
                             cell_idx);
        if (progress != nullptr)
            progress->cellStarted(cell_idx, a);
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // Isolated attempts journal their own running record from
            // onSpawn, with the real pid.
            if (!opts.isolateCells && ledger.journal != nullptr)
                ledger.journal->cellRunning(label, a, 0);
            COSIM_FAULT_POINT("cell.throw");
            if (faultPending("cell.hang")) {
                const double nap = opts.cellTimeout > 0.0
                    ? opts.cellTimeout * 1.5
                    : 0.25;
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(nap));
            }
            CellOutput cell = opts.isolateCells
                ? runIsolatedCell(label, opts, progress, cell_idx, slot,
                                  ledger.journal, a)
                : attempt(a, slot);
            const double secs = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
            // Isolated cells already had the real watchdog: silence
            // past the budget means the child was SIGKILLed and never
            // reaches here.
            if (opts.cellTimeout > 0.0 && !opts.isolateCells) {
                if (slot != nullptr && slot->watch().beats() > 0) {
                    const double gap =
                        static_cast<double>(slot->watch().maxGapUs()) /
                        1e6;
                    if (gap > opts.cellTimeout) {
                        throw std::runtime_error(strFormat(
                            "cell exceeded --cell-timeout (silent for "
                            "%.2fs > %.2fs)", gap, opts.cellTimeout));
                    }
                } else if (secs > opts.cellTimeout) {
                    throw std::runtime_error(strFormat(
                        "cell exceeded --cell-timeout (%.2fs > %.2fs)",
                        secs, opts.cellTimeout));
                }
            }
            cell.mw.status = a > 1 ? "retried" : "ok";
            cell.mw.attempts = a;
            if (ledger.journal != nullptr) {
                // Durable result: (re-)write the artifact with the
                // final status/attempts and journal its fingerprint.
                // --resume trusts the file only while the digest still
                // matches; an unwritable artifact just leaves the cell
                // un-done, so a resume re-runs it.
                const std::string artifact =
                    cellArtifactPath(opts, label);
                try {
                    writeFileAtomic(
                        artifact, renderCellResult(cell, stats_prefix));
                } catch (const IoError& e) {
                    warn("cell artifact %s: %s", artifact.c_str(),
                         e.what());
                }
                std::uint64_t digest = 0;
                std::uint64_t bytes = 0;
                if (digestFileFnv(artifact, &digest, &bytes)) {
                    ledger.journal->cellDone(label, a, artifact, bytes,
                                             digest);
                } else {
                    warn("cell artifact %s: unreadable; the cell will "
                         "re-run on resume", artifact.c_str());
                }
            }
            FlightRecorder::note(FrKind::CellDone, "sweep.cell", a,
                                 cell_idx);
            if (progress != nullptr)
                progress->cellFinished(cell_idx, true, secs, "");
            if (obs::metrics::enabled()) {
                static const obs::metrics::Histogram wall_ms =
                    obs::metrics::histogram(
                        "sweep.cell_wall_ms",
                        "wall-clock of successful cell attempts (ms)");
                static const obs::metrics::Counter cells_ok =
                    obs::metrics::counter("sweep.cells_ok",
                                          "cells that finished ok");
                static const obs::metrics::Counter cells_retried =
                    obs::metrics::counter(
                        "sweep.cells_retried",
                        "cells that finished after a retry");
                wall_ms.record(static_cast<std::uint64_t>(secs * 1e3));
                cells_ok.inc();
                if (a > 1)
                    cells_retried.inc();
            }
            return cell;
        } catch (const std::exception& e) {
            last_secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            obs::StatsRegistry::global().removePrefix(stats_prefix);
            last_error = e.what();
            warn("sweep cell %s failed (attempt %u/%u): %s",
                 label.c_str(), a, max_attempts, e.what());
            const auto* proc = dynamic_cast<const CellProcessError*>(&e);
            last_exit = JournalExit{};
            if (proc != nullptr) {
                switch (proc->result.end) {
                case SubprocessResult::End::Exited:
                    last_exit.kind = "exit";
                    last_exit.code = proc->result.exitCode;
                    break;
                case SubprocessResult::End::Signaled:
                    last_exit.kind = "signal";
                    last_exit.code = proc->result.termSignal;
                    break;
                case SubprocessResult::End::TimedOut:
                    last_exit.kind = "timeout";
                    last_exit.code = proc->result.termSignal;
                    break;
                }
            }
            if (progress != nullptr) {
                const auto* injected =
                    dynamic_cast<const FaultInjected*>(&e);
                if (injected != nullptr) {
                    progress->cellFault(cell_idx, injected->site(),
                                        injected->hit());
                }
                if (a < max_attempts)
                    progress->cellRetried(cell_idx, a + 1, last_error);
            }
            obs::PostmortemInfo pm;
            pm.reason = proc != nullptr &&
                        proc->result.end != SubprocessResult::End::Exited
                ? "cell_killed"
                : "cell_failed";
            pm.cell = label;
            pm.attempt = a;
            pm.error = last_error;
            if (proc != nullptr) {
                pm.signalName = proc->result.signalName;
                pm.stderrTail = proc->result.stderrTail;
            }
            obs::writePostmortem(opts.outDir + "/postmortem.json", pm);
        }
    }
    if (ledger.journal != nullptr) {
        ledger.journal->cellFailed(label, max_attempts, last_error,
                                   last_exit);
    }
    if (progress != nullptr)
        progress->cellFinished(cell_idx, false, last_secs, last_error);
    if (obs::metrics::enabled()) {
        static const obs::metrics::Counter cells_failed =
            obs::metrics::counter("sweep.cells_failed",
                                  "cells whose every attempt failed");
        cells_failed.inc();
    }
    CellOutput cell;
    cell.failed = true;
    cell.mw.name = label;
    cell.mw.status = "failed";
    cell.mw.attempts = max_attempts;
    cell.mw.error = last_error;
    return cell;
}

/**
 * The paper's combined cell: execute @p name once on @p cosim with every
 * configuration of the sweep passively attached, optionally recording or
 * fingerprinting the bus stream on the side.
 */
CellOutput
runCombinedCell(CoSimulation& cosim, const std::string& name,
                const PlatformParams& platform, const BenchOptions& opts)
{
    TRACE_SPAN("sweep", "workload");
    TRACE_INSTANT("sweep", "workload.start");

    auto workload = createWorkload(name, opts.scale);

    WorkloadConfig cfg;
    cfg.nThreads = platform.nCores;
    cfg.scale = opts.scale;
    cfg.seed = opts.seed;

    // Stream observers ride the bus alongside the emulators; capture
    // subsumes the digest (the writer fingerprints what it encodes).
    FrontSideBus& fsb = cosim.platform().fsb();
    std::unique_ptr<FsbCaptureSnooper> capture;
    std::unique_ptr<FsbDigestSnooper> digest;
    if (!opts.captureBase.empty()) {
        capture = std::make_unique<FsbCaptureSnooper>(
            captureMeta(name, platform, opts));
        fsb.attach(capture.get());
    } else if (!opts.digestFile.empty()) {
        digest = std::make_unique<FsbDigestSnooper>();
        fsb.attach(digest.get());
    }

    RunResult result = cosim.run(*workload, cfg);
    if (capture)
        fsb.detach(capture.get());
    if (digest)
        fsb.detach(digest.get());
    checkVerified(result, name, platform, opts);

    CellOutput cell;
    cell.guestExecutions = 1;
    fillWorkloadResult(cell, workload->name(), result);

    for (unsigned e = 0; e < cosim.nEmulators(); ++e)
        collectEmulator(cosim.emulator(e), cell.mw.name, platform.nCores,
                        cell);
    if (cosim.nEmulators() > 0)
        collectSamples(cosim.emulator(0), cell);

    if (capture) {
        FsbStreamWriter& writer = capture->writer();
        writer.setResult(result.totalInsts, result.verified);
        writer.writeFile(fsbStreamPath(opts.captureBase, name));
        noteCapture(cell, writer, capture->encodeSeconds());
    } else if (digest) {
        cell.hasDigest = true;
        cell.streamTxns = digest->txnCount();
        cell.streamDigest = digest->digest();
    }

    snapshotCellStats(cosim, "cell/" + cell.mw.name + "/");
    return cell;
}

/**
 * Combined replay cell: feed "<replayBase>.<name>.fsb" through every
 * attached configuration instead of executing the guest.
 */
CellOutput
replayCombinedCell(CoSimulation& cosim, const std::string& name,
                   const PlatformParams& platform, const BenchOptions& opts)
{
    TRACE_SPAN("sweep", "workload.replay");

    const std::string path = fsbStreamPath(opts.replayBase, name);
    ReplayResult details;
    RunResult result = cosim.replayFile(path, &details);
    warnStreamWorkload(details.meta, path, name);
    checkVerified(result, name, platform, opts);

    CellOutput cell;
    fillWorkloadResult(cell, name, result);

    for (unsigned e = 0; e < cosim.nEmulators(); ++e)
        collectEmulator(cosim.emulator(e), name, platform.nCores, cell);
    if (cosim.nEmulators() > 0)
        collectSamples(cosim.emulator(0), cell);

    noteReplay(cell, details);
    cell.hasDigest = true;
    cell.streamTxns = details.txns;
    cell.streamDigest = details.digest;

    snapshotCellStats(cosim, "cell/" + name + "/");
    return cell;
}

/**
 * Exec-mode cell: execute the guest with a *single* emulated
 * configuration attached -- one cell per (workload, configuration).
 * Only the first configuration's cell observes the stream (every cell
 * of a workload broadcasts identical traffic).
 */
CellOutput
runExecCell(const std::string& name, std::size_t config_index,
            const DragonheadParams& emu, const std::string& tick,
            const PlatformParams& platform, const BenchOptions& opts,
            obs::HeartbeatSlot* beat)
{
    TRACE_SPAN("sweep", "cell.exec");

    CoSimParams params;
    params.platform = platform;
    params.platform.dex.hostThreads = opts.dexThreads;
    params.platform.dex.degradeSerial = opts.degradeSerial;
    params.emulators = {emu};
    params.emulationThreads = opts.emuThreads;
    params.degradeToSerial = opts.degradeSerial;
    CoSimulation rig(params);
    rig.setHeartbeat(beat);

    auto workload = createWorkload(name, opts.scale);
    WorkloadConfig cfg;
    cfg.nThreads = platform.nCores;
    cfg.scale = opts.scale;
    cfg.seed = opts.seed;

    FrontSideBus& fsb = rig.platform().fsb();
    std::unique_ptr<FsbCaptureSnooper> capture;
    std::unique_ptr<FsbDigestSnooper> digest;
    if (config_index == 0 && !opts.captureBase.empty()) {
        capture = std::make_unique<FsbCaptureSnooper>(
            captureMeta(name, platform, opts));
        fsb.attach(capture.get());
    } else if (config_index == 0 && !opts.digestFile.empty()) {
        digest = std::make_unique<FsbDigestSnooper>();
        fsb.attach(digest.get());
    }

    RunResult result = rig.run(*workload, cfg);
    if (capture)
        fsb.detach(capture.get());
    if (digest)
        fsb.detach(digest.get());
    checkVerified(result, name, platform, opts);

    CellOutput cell;
    cell.guestExecutions = 1;
    fillWorkloadResult(cell, name, result);
    collectEmulator(rig.emulator(0), name, platform.nCores, cell);
    if (config_index == 0)
        collectSamples(rig.emulator(0), cell);

    if (capture) {
        FsbStreamWriter& writer = capture->writer();
        writer.setResult(result.totalInsts, result.verified);
        writer.writeFile(fsbStreamPath(opts.captureBase, name));
        noteCapture(cell, writer, capture->encodeSeconds());
    } else if (digest) {
        cell.hasDigest = true;
        cell.streamTxns = digest->txnCount();
        cell.streamDigest = digest->digest();
    }

    snapshotCellStats(rig, "cell/" + name + "/" + tick + "/");
    return cell;
}

/** Where a replay- or sampled-mode workload's stream comes from. */
struct WorkloadStream
{
    /** In-memory capture (null = file-backed via @ref path). */
    std::shared_ptr<const std::vector<std::uint8_t>> buffer;
    std::string path;
    /** Provenance label for in-memory replays. */
    std::string source;
    /** Bookkeeping of the capture execution (guest cost, digest). */
    CellOutput base;

    /** Sampled mode: the plan the config cells replay under. @{ */
    SamplingPlan plan;
    bool hasPlan = false;
    /** @} */

    /** Sampled mode: full-run reference counters from the profiling
     * pass, the denominator of the accuracy layer (absent when the
     * plan came from --plan and the stream from --replay: nothing was
     * profiled, so nothing can be compared). @{ */
    LlcResults ref;
    bool hasRef = false;
    /** @} */
};

/**
 * Replay-mode phase 1: execute @p name once with *no* emulators attached
 * and record its bus stream in memory (and to --capture files when
 * requested). With --replay the stream is already on disk and the guest
 * never runs.
 */
WorkloadStream
captureWorkloadStream(const std::string& name,
                      const PlatformParams& platform,
                      const BenchOptions& opts, obs::HeartbeatSlot* beat)
{
    WorkloadStream ws;
    if (!opts.replayBase.empty()) {
        ws.path = fsbStreamPath(opts.replayBase, name);
        return ws;
    }

    TRACE_SPAN("sweep", "cell.capture");

    CoSimParams params;
    params.platform = platform;
    params.platform.dex.hostThreads = opts.dexThreads;
    params.platform.dex.degradeSerial = opts.degradeSerial;
    CoSimulation rig(params);
    rig.setHeartbeat(beat);

    auto workload = createWorkload(name, opts.scale);
    WorkloadConfig cfg;
    cfg.nThreads = platform.nCores;
    cfg.scale = opts.scale;
    cfg.seed = opts.seed;

    FsbCaptureSnooper capture(captureMeta(name, platform, opts));
    rig.platform().fsb().attach(&capture);
    RunResult result = rig.run(*workload, cfg);
    rig.platform().fsb().detach(&capture);
    checkVerified(result, name, platform, opts);

    FsbStreamWriter& writer = capture.writer();
    writer.setResult(result.totalInsts, result.verified);
    writer.finish();
    if (!opts.captureBase.empty())
        writer.writeFile(fsbStreamPath(opts.captureBase, name));
    noteCapture(ws.base, writer, capture.encodeSeconds());
    ws.buffer = writer.share();
    ws.source = "memory:" + name;

    ws.base.guestExecutions = 1;
    fillWorkloadResult(ws.base, name, result);

    snapshotCellStats(rig, "cell/" + name + "/capture/");
    return ws;
}

/**
 * Sampled-mode phase 1: obtain the workload's stream *and* its sampling
 * plan. Unlike the replay-mode capture, the profiling rig runs with the
 * sweep's first configuration attached: its full-run counters are the
 * accuracy layer's reference, and its CB sample series is the
 * clustering input when no --plan file is given.
 */
WorkloadStream
profileSampledStream(const std::string& name,
                     const DragonheadParams& ref_emu,
                     const PlatformParams& platform,
                     const BenchOptions& opts, obs::HeartbeatSlot* beat)
{
    TRACE_SPAN("sweep", "cell.profile");

    WorkloadStream ws;

    CoSimParams params;
    params.platform = platform;
    params.platform.dex.hostThreads = opts.dexThreads;
    params.platform.dex.degradeSerial = opts.degradeSerial;
    params.emulators = {ref_emu};
    params.emulationThreads = opts.emuThreads;
    params.degradeToSerial = opts.degradeSerial;
    CoSimulation rig(params);
    rig.setHeartbeat(beat);

    if (!opts.replayBase.empty()) {
        // Stream already on disk: one full-detail replay through the
        // reference configuration recovers the sample series and the
        // reference counters without executing the guest.
        ws.path = fsbStreamPath(opts.replayBase, name);
        ReplayResult details;
        RunResult result = rig.replayFile(ws.path, &details);
        warnStreamWorkload(details.meta, ws.path, name);
        checkVerified(result, name, platform, opts);
        fillWorkloadResult(ws.base, name, result);
        noteReplay(ws.base, details);
        ws.base.hasDigest = true;
        ws.base.streamTxns = details.txns;
        ws.base.streamDigest = details.digest;
    } else {
        // Execute the guest once, recording the stream for the config
        // cells while the reference configuration emulates it in full.
        auto workload = createWorkload(name, opts.scale);
        WorkloadConfig cfg;
        cfg.nThreads = platform.nCores;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;

        FsbCaptureSnooper capture(captureMeta(name, platform, opts));
        rig.platform().fsb().attach(&capture);
        RunResult result = rig.run(*workload, cfg);
        rig.platform().fsb().detach(&capture);
        checkVerified(result, name, platform, opts);

        FsbStreamWriter& writer = capture.writer();
        writer.setResult(result.totalInsts, result.verified);
        writer.finish();
        if (!opts.captureBase.empty())
            writer.writeFile(fsbStreamPath(opts.captureBase, name));
        noteCapture(ws.base, writer, capture.encodeSeconds());
        ws.buffer = writer.share();
        ws.source = "memory:" + name;
        ws.base.guestExecutions = 1;
        fillWorkloadResult(ws.base, name, result);
    }

    ws.ref = rig.emulator(0).results();
    ws.hasRef = true;
    collectSamples(rig.emulator(0), ws.base);

    if (!opts.planBase.empty()) {
        const std::string path = planPath(opts.planBase, name);
        std::string error;
        if (!SamplingPlan::load(path, ws.plan, &error))
            throw std::runtime_error("plan " + path + ": " + error);
        if (ws.plan.samplePeriodUs !=
                static_cast<double>(ref_emu.cb.samplePeriodUs) ||
            ws.plan.coreFreqGhz != ref_emu.cb.coreFreqGhz) {
            warn("plan %s: window geometry (%g us @ %g GHz) differs "
                 "from the sweep's CB (%llu us @ %g GHz); intervals "
                 "will not align with the profiled windows",
                 path.c_str(), ws.plan.samplePeriodUs,
                 ws.plan.coreFreqGhz,
                 static_cast<unsigned long long>(
                     ref_emu.cb.samplePeriodUs),
                 ref_emu.cb.coreFreqGhz);
        }
    } else {
        ws.plan = makePlan(ws.base.cbSamples, name, ref_emu.cb, opts);
        if (!opts.planOutBase.empty()) {
            // writeFile throws IoError, so a bad path fails this cell,
            // not the whole sweep (see --keep-going).
            const std::string path = planPath(opts.planOutBase, name);
            ws.plan.writeFile(path);
            inform("plan: %s (%zu intervals, %.1f%% coverage)",
                   path.c_str(), ws.plan.intervals.size(),
                   100.0 * ws.plan.coverage());
        }
    }
    ws.hasPlan = true;

    snapshotCellStats(rig, "cell/" + name + "/profile/");
    return ws;
}

/**
 * Replay-mode phase 2: feed @p ws through a single-configuration rig --
 * one replay cell per (workload, configuration), freely parallel.
 */
CellOutput
replayConfigCell(const WorkloadStream& ws, const std::string& name,
                 std::size_t config_index, const DragonheadParams& emu,
                 const std::string& tick, const PlatformParams& platform,
                 const BenchOptions& opts, obs::HeartbeatSlot* beat)
{
    TRACE_SPAN("sweep", "cell.replay");

    CoSimParams params;
    params.platform = platform;
    params.emulators = {emu};
    params.emulationThreads = opts.emuThreads;
    params.degradeToSerial = opts.degradeSerial;
    CoSimulation rig(params);
    rig.setHeartbeat(beat);

    ReplayResult details;
    RunResult result = ws.buffer
        ? rig.replayBuffer(ws.buffer, ws.source, &details)
        : rig.replayFile(ws.path, &details);
    warnStreamWorkload(details.meta, ws.buffer ? ws.source : ws.path,
                       name);
    checkVerified(result, name, platform, opts);

    CellOutput cell;
    fillWorkloadResult(cell, name, result);
    collectEmulator(rig.emulator(0), name, platform.nCores, cell);
    if (config_index == 0)
        collectSamples(rig.emulator(0), cell);

    noteReplay(cell, details);
    if (config_index == 0 && !ws.base.hasDigest) {
        // File-backed replay: the reader's digest is the only
        // fingerprint this run computes.
        cell.hasDigest = true;
        cell.streamTxns = details.txns;
        cell.streamDigest = details.digest;
    }

    snapshotCellStats(rig, "cell/" + name + "/" + tick + "/");
    return cell;
}

/** Whole-run per-instruction metrics reconstructed from a plan and
 * one emulator's per-window sample series. */
struct SampledEstimate
{
    double mpki = 0.0;
    double apki = 0.0;
    double cpi = 0.0;
};

SampledEstimate
estimateFromSamples(const SamplingPlan& plan,
                    const std::vector<Sample>& samples)
{
    // Ratio-of-extrapolated-counts estimator: scale each phase's
    // representative window *counts* by the phase's window share, then
    // take metric ratios once at the end. Averaging per-window ratios
    // instead would need every numerator's denominator to land in the
    // same window -- but instruction deltas arrive in whole DEX quanta,
    // so at fine sample periods a window's insts are lumpy while its
    // cycle span is fixed, and a weighted mean of cycles/insts inflates
    // CPI. Summing first cancels the lumping: neighbouring windows of a
    // phase mis-attribute insts to each other, not out of the phase.
    SampledEstimate est;
    double insts = 0, cycles = 0, misses = 0, accesses = 0;
    for (const PlanInterval& iv : plan.intervals) {
        if (iv.window >= samples.size())
            continue; // stream shorter than the profile; ratios still ok
        const Sample& s = samples[iv.window];
        insts += iv.weight * static_cast<double>(s.insts);
        cycles += iv.weight * static_cast<double>(s.cycles);
        misses += iv.weight * static_cast<double>(s.misses);
        accesses += iv.weight * static_cast<double>(s.accesses);
    }
    if (insts <= 0.0)
        return est;
    est.mpki = 1000.0 * misses / insts;
    est.apki = 1000.0 * accesses / insts;
    est.cpi = cycles / insts;
    return est;
}

/**
 * Sampled-mode phase 2: one gated replay per *workload* with every
 * sweep configuration attached. The stream is decoded once and
 * broadcast to all emulators (the expensive part of a sampled pass is
 * the decode, so a per-configuration decomposition would pay it
 * nEmulators times for identical traffic); each representative
 * window's CB sample then holds a warm-started, uncontaminated detail
 * delta per configuration, and whole-run MPKI/APKI/CPI are
 * reconstructed per configuration as instruction-weighted sums over
 * those deltas, scaled back to absolute counts by the exact
 * instruction total.
 */
CellOutput
sampledWorkloadCell(CoSimulation& rig, const WorkloadStream& ws,
                    const std::string& name,
                    const PlatformParams& platform,
                    const BenchOptions& opts)
{
    TRACE_SPAN("sweep", "cell.sampled");

    ReplayResult details;
    SampledReplayStats sstats;
    RunResult result = ws.buffer
        ? rig.replaySampledBuffer(ws.buffer, ws.source, ws.plan, &sstats,
                                  &details, opts.sampledWarming,
                                  opts.warmStride)
        : rig.replaySampledFile(ws.path, ws.plan, &sstats, &details,
                                opts.sampledWarming, opts.warmStride);
    warnStreamWorkload(details.meta, ws.buffer ? ws.source : ws.path,
                       name);
    checkVerified(result, name, platform, opts);

    CellOutput cell;
    fillWorkloadResult(cell, name, result);

    for (unsigned e = 0; e < rig.nEmulators(); ++e) {
        const LlcView& dh = rig.emulator(e);
        const LlcResults totals = dh.results();
        const SampledEstimate est =
            estimateFromSamples(ws.plan, dh.samples());

        SweepPoint point;
        point.workload = name;
        point.nCores = platform.nCores;
        point.llcSize = dh.params().llc.size;
        point.lineSize = dh.params().llc.lineSize;
        point.insts = totals.insts;
        const double kinsts = static_cast<double>(totals.insts) / 1000.0;
        point.llcMisses =
            static_cast<std::uint64_t>(est.mpki * kinsts + 0.5);
        point.llcAccesses =
            static_cast<std::uint64_t>(est.apki * kinsts + 0.5);
        cell.series.push_back(point.mpki());
        cell.points.push_back(point);
        cell.mw.mpkiPerConfig.push_back(point.mpki());

        if (e > 0)
            continue;
        collectSamples(dh, cell);

        obs::ManifestSampling& smp = cell.mw.sampling;
        smp.active = true;
        smp.intervals = ws.plan.intervals.size();
        smp.totalWindows = ws.plan.totalWindows;
        smp.warmupQuanta = ws.plan.warmupWindows;
        smp.coverage = ws.plan.coverage();
        smp.estCpi = est.cpi;
        smp.estMpki = est.mpki;
        smp.estApki = est.apki;
        // Only the first configuration has a reference: the profiling
        // pass ran with the sweep's first emulator attached.
        if (ws.hasRef && ws.ref.insts > 0) {
            const double finsts = static_cast<double>(ws.ref.insts);
            smp.hasError = true;
            smp.fullMpki = ws.ref.mpki();
            smp.fullApki =
                1000.0 * static_cast<double>(ws.ref.accesses) / finsts;
            smp.fullCpi = static_cast<double>(ws.ref.cycles) / finsts;
            smp.errMpki = relErr(est.mpki, smp.fullMpki);
            smp.errApki = relErr(est.apki, smp.fullApki);
            smp.errCpi = relErr(est.cpi, smp.fullCpi);
            // DRAM traffic is misses x line size on both sides, so its
            // relative error reduces to the absolute-miss-count error.
            smp.errDram =
                relErr(est.mpki * static_cast<double>(totals.insts),
                       smp.fullMpki * finsts);
        }
    }

    noteReplay(cell, details);
    if (!ws.base.hasDigest) {
        cell.hasDigest = true;
        cell.streamTxns = details.txns;
        cell.streamDigest = details.digest;
    }

    if (obs::metrics::enabled()) {
        static const obs::metrics::Counter sampled_cells =
            obs::metrics::counter("sweep.sampled_cells",
                                  "sampled replay cells completed");
        static const obs::metrics::Counter sampled_delivered =
            obs::metrics::counter(
                "sweep.sampled_txns_delivered",
                "data transactions delivered inside detail windows");
        static const obs::metrics::Counter sampled_warmed =
            obs::metrics::counter(
                "sweep.sampled_txns_warmed",
                "data transactions delivered warm-only outside detail "
                "windows");
        static const obs::metrics::Counter sampled_skipped =
            obs::metrics::counter(
                "sweep.sampled_txns_skipped",
                "data transactions fast-forwarded past");
        static const obs::metrics::Counter sampled_intervals =
            obs::metrics::counter(
                "sweep.sampled_intervals",
                "representative intervals reached by sampled replays");
        sampled_cells.inc();
        sampled_delivered.add(sstats.dataDelivered);
        sampled_warmed.add(sstats.dataWarmed);
        sampled_skipped.add(sstats.dataSkipped);
        sampled_intervals.add(sstats.intervalsReached);
    }

    snapshotCellStats(rig, "cell/" + name + "/sampled/");
    return cell;
}

/**
 * Emit one "sampled_skip" progress event per fast-forwarded window span
 * of @p plan (the complement of the merged warm-up + interval ranges),
 * so a live viewer can see what the sweep did *not* simulate.
 */
void
emitSkipEvents(obs::SweepProgress& progress, const std::string& name,
               const SamplingPlan& plan)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const PlanInterval& iv : plan.intervals) {
        const std::uint64_t lo =
            iv.window -
            std::min<std::uint64_t>(plan.warmupWindows, iv.window);
        if (!ranges.empty() && lo <= ranges.back().second + 1)
            ranges.back().second =
                std::max(ranges.back().second, iv.window);
        else
            ranges.emplace_back(lo, iv.window);
    }
    std::uint64_t next = 0;
    auto emit = [&](std::uint64_t from, std::uint64_t to) {
        if (to <= from)
            return;
        progress.event("sampled_skip",
                       "\"workload\":" + obs::json::quote(name) +
                           ",\"from\":" + std::to_string(from) +
                           ",\"to\":" + std::to_string(to - 1) +
                           ",\"windows\":" + std::to_string(to - from));
    };
    for (const auto& r : ranges) {
        emit(next, r.first);
        next = r.second + 1;
    }
    emit(next, plan.totalWindows);
}

/** Fold one workload's per-configuration cells into a figure row. */
CellOutput
mergeWorkloadCells(const std::string& name, const CellOutput* base,
                   std::vector<CellOutput>& configs)
{
    // Outcome first: any failed constituent fails the whole workload
    // row (a partial series would silently shift the figure's x axis).
    bool any_failed = base != nullptr && base->failed;
    bool any_retried = base != nullptr && base->mw.status == "retried";
    std::uint64_t attempts = base ? base->mw.attempts : 1;
    std::string error = base ? base->mw.error : "";
    for (const CellOutput& c : configs) {
        any_failed = any_failed || c.failed;
        any_retried = any_retried || c.mw.status == "retried";
        attempts = std::max(attempts, c.mw.attempts);
        if (error.empty())
            error = c.mw.error;
    }
    if (any_failed) {
        CellOutput merged;
        merged.failed = true;
        merged.mw.name = name;
        merged.mw.status = "failed";
        merged.mw.attempts = attempts;
        merged.mw.error = error;
        return merged;
    }

    CellOutput merged;
    merged.mw.name = name;
    merged.mw.status = any_retried ? "retried" : "ok";
    merged.mw.attempts = attempts;

    const CellOutput& first = base ? *base : configs.front();
    merged.mw.totalInsts = first.mw.totalInsts;
    merged.mw.verified = first.mw.verified;
    merged.mw.replayedFrom = configs.front().mw.replayedFrom;
    merged.mw.seriesTimeUs = configs.front().mw.seriesTimeUs;
    merged.mw.seriesMpki = configs.front().mw.seriesMpki;
    // The first configuration's cell carries the workload's sampling
    // record (it is the one with a reference) and its CB series.
    merged.mw.sampling = configs.front().mw.sampling;
    merged.cbSamples = configs.front().cbSamples;
    if (merged.cbSamples.empty() && base != nullptr)
        merged.cbSamples = base->cbSamples;

    double host = 0.0;
    if (base) {
        host += base->mw.hostSeconds;
        merged.guestExecutions += base->guestExecutions;
        merged.captureTxns += base->captureTxns;
        merged.captureBytes += base->captureBytes;
        merged.captureSeconds += base->captureSeconds;
        if (base->hasDigest) {
            merged.hasDigest = true;
            merged.streamTxns = base->streamTxns;
            merged.streamDigest = base->streamDigest;
        }
    }
    for (CellOutput& c : configs) {
        host += c.mw.hostSeconds;
        merged.guestExecutions += c.guestExecutions;
        merged.captureTxns += c.captureTxns;
        merged.captureBytes += c.captureBytes;
        merged.captureSeconds += c.captureSeconds;
        merged.replayTxns += c.replayTxns;
        merged.replayBytes += c.replayBytes;
        merged.replaySeconds += c.replaySeconds;
        merged.series.insert(merged.series.end(), c.series.begin(),
                             c.series.end());
        merged.points.insert(merged.points.end(),
                             std::make_move_iterator(c.points.begin()),
                             std::make_move_iterator(c.points.end()));
        merged.mw.mpkiPerConfig.insert(merged.mw.mpkiPerConfig.end(),
                                       c.mw.mpkiPerConfig.begin(),
                                       c.mw.mpkiPerConfig.end());
        if (!merged.hasDigest && c.hasDigest) {
            merged.hasDigest = true;
            merged.streamTxns = c.streamTxns;
            merged.streamDigest = c.streamDigest;
        }
    }
    merged.mw.hostSeconds = host;
    merged.mw.simMips = host > 0.0
        ? static_cast<double>(merged.mw.totalInsts) / 1e6 / host
        : 0.0;
    return merged;
}

/**
 * --run-cell=<label> child re-entry: run exactly that cell's body,
 * serialize the result (cosim-cell-result/1) to --cell-result, and
 * exit without returning. Labels mirror the parent's: "<workload>"
 * (combined), "<workload>/<tick>" (exec / file-backed replay), and
 * "<workload>/sampled". The parent owns every sweep-level concern --
 * journal, retries, watchdog, run artifacts -- so a failure here just
 * prints one recognizable stderr line and exits non-zero; the parent
 * turns the tail into the cell's error.
 */
[[noreturn]] void
runCellChild(const PlatformParams& platform,
             const std::vector<DragonheadParams>& emulators,
             const std::vector<std::string>& ticks,
             const BenchOptions& opts)
{
    const std::string& label = opts.runCell;
    try {
        // Parent-injected self-destruct (see runIsolatedCell): crash
        // before doing any work, or go silent long enough for the
        // parent's watchdog to shoot us.
        if (opts.selfDestruct == "segv") {
            std::raise(SIGSEGV);
        } else if (opts.selfDestruct.rfind("stall:", 0) == 0) {
            const double secs = std::atof(opts.selfDestruct.c_str() + 6);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(secs));
        }

        // Liveness flows to the parent through the inherited pipe fd;
        // without one the slot is a harmless local sink.
        obs::HeartbeatSlot beat;
        if (opts.heartbeatFd >= 0)
            beat.bindPipe(opts.heartbeatFd);

        CellOutput cell;
        const std::size_t slash = label.find('/');
        if (slash == std::string::npos) {
            // Combined cell: the label is the workload name.
            CoSimParams params;
            params.platform = platform;
            params.platform.dex.hostThreads = opts.dexThreads;
            params.platform.dex.degradeSerial = opts.degradeSerial;
            params.emulators = emulators;
            params.emulationThreads = opts.emuThreads;
            params.degradeToSerial = opts.degradeSerial;
            CoSimulation rig(params);
            rig.setHeartbeat(&beat);
            cell = opts.replayBase.empty()
                ? runCombinedCell(rig, label, platform, opts)
                : replayCombinedCell(rig, label, platform, opts);
        } else {
            const std::string name = label.substr(0, slash);
            const std::string sub = label.substr(slash + 1);
            if (sub == "sampled") {
                // Isolation requires file-backed streams and plans
                // (parseBenchArgs enforces it), so phase 1 never runs
                // in a child and both inputs are on disk.
                WorkloadStream ws;
                ws.path = fsbStreamPath(opts.replayBase, name);
                const std::string ppath = planPath(opts.planBase, name);
                std::string perr;
                if (!SamplingPlan::load(ppath, ws.plan, &perr)) {
                    throw std::runtime_error("plan " + ppath + ": " +
                                             perr);
                }
                ws.hasPlan = true;
                CoSimParams params;
                params.platform = platform;
                params.emulators = emulators;
                params.emulationThreads = opts.emuThreads;
                params.degradeToSerial = opts.degradeSerial;
                CoSimulation rig(params);
                rig.setHeartbeat(&beat);
                cell = sampledWorkloadCell(rig, ws, name, platform,
                                           opts);
            } else {
                std::size_t c = ticks.size();
                for (std::size_t i = 0; i < ticks.size(); ++i) {
                    if (ticks[i] == sub) {
                        c = i;
                        break;
                    }
                }
                if (c == ticks.size()) {
                    throw std::runtime_error("unknown cell '" + label +
                                             "'");
                }
                if (opts.cells == CellMode::Replay) {
                    WorkloadStream ws;
                    ws.path = fsbStreamPath(opts.replayBase, name);
                    cell = replayConfigCell(ws, name, c, emulators[c],
                                            ticks[c], platform, opts,
                                            &beat);
                } else {
                    cell = runExecCell(name, c, emulators[c], ticks[c],
                                       platform, opts, &beat);
                }
            }
        }

        cell.mw.status = "ok";
        cell.mw.attempts = 1;
        writeFileAtomic(opts.cellResultFile,
                        renderCellResult(cell, "cell/" + label + "/"));
        std::exit(0);
    } catch (const std::exception& e) {
        // One line the parent's stderr tail turns into the cell error.
        std::fprintf(stderr, "cosim-cell-error: %s\n", e.what());
        std::exit(1);
    }
}

/**
 * Exec, replay and sampled decompositions, scheduled across --jobs
 * host threads. Exec and replay run one cell per (workload,
 * configuration); replay mode first obtains a stream per workload
 * (phase 1), then replays it through every configuration (phase 2).
 * Sampled mode also stages, but its phase 2 is one gated replay per
 * workload with all configurations attached (see sampledWorkloadCell).
 */
std::vector<CellOutput>
runPerConfigCells(const BenchOptions& opts, const PlatformParams& platform,
                  const std::vector<DragonheadParams>& emulators,
                  const std::vector<std::string>& ticks,
                  const SweepLedger& ledger,
                  obs::SweepProgress* progress)
{
    const std::size_t n_w = opts.workloads.size();
    const std::size_t n_c = emulators.size();
    const bool replay = opts.cells == CellMode::Replay;
    const bool sampled = opts.cells == CellMode::Sampled;
    const bool staged = replay || sampled;
    // Phase-2 cells per workload: sampled mode broadcasts one decode
    // to every configuration instead of replaying per configuration.
    const std::size_t n_pc = sampled ? 1 : n_c;
    // Replay mode needs a phase-1 cell when the stream is not on disk;
    // sampled mode also when the plan must be clustered (or the error
    // baseline profiled) from a full pass.
    const bool profile_phase =
        (replay && opts.replayBase.empty()) ||
        (sampled &&
         (opts.replayBase.empty() || opts.planBase.empty()));
    const char* phase1 = sampled ? "/profile" : "/capture";

    // Register every row up front so the live view shows the whole
    // sweep (pending cells included) from the first tick.
    std::vector<std::size_t> cap_rows(n_w, 0);
    std::vector<std::size_t> cfg_rows(n_w * n_pc, 0);
    if (progress != nullptr) {
        if (profile_phase) {
            for (std::size_t w = 0; w < n_w; ++w) {
                cap_rows[w] =
                    progress->addCell(opts.workloads[w] + phase1);
            }
        }
        for (std::size_t w = 0; w < n_w; ++w) {
            for (std::size_t c = 0; c < n_pc; ++c) {
                cfg_rows[w * n_pc + c] = progress->addCell(
                    sampled ? opts.workloads[w] + "/sampled"
                            : opts.workloads[w] + "/" + ticks[c]);
            }
        }
    }

    std::vector<WorkloadStream> streams(staged ? n_w : 0);
    if (staged && !profile_phase) {
        // File-backed: no guest execution, just resolve paths (and, in
        // sampled mode, load the plan -- --plan with --replay skips the
        // profiling pass entirely, at the price of the error baseline).
        // Unreadable or corrupt streams surface per config cell below.
        for (std::size_t w = 0; w < n_w; ++w) {
            const std::string& name = opts.workloads[w];
            streams[w].path = fsbStreamPath(opts.replayBase, name);
            if (!sampled)
                continue;
            const std::string path = planPath(opts.planBase, name);
            std::string error;
            if (SamplingPlan::load(path, streams[w].plan, &error)) {
                streams[w].hasPlan = true;
            } else {
                // Fail the workload's config cells, not the sweep.
                streams[w].base.failed = true;
                streams[w].base.mw.name = name + phase1;
                streams[w].base.mw.status = "failed";
                streams[w].base.mw.error =
                    "plan " + path + ": " + error;
            }
        }
    }
    // The capture/profile execution is a cell of its own: if it fails,
    // the workload's config cells are skipped (they would replay a
    // stream that does not exist), not crashed into.
    auto capture_task = [&](std::size_t w) {
        const std::string& name = opts.workloads[w];
        WorkloadStream ws;
        // Phase-1 outputs live in memory (stream buffer, plan, error
        // reference) and cannot cross a process boundary or be reloaded
        // on resume, so these cells never journal or isolate -- the
        // argument validation in parseBenchArgs keeps this phase off
        // entirely under --isolate-cells / --journal by requiring
        // file-backed streams.
        ws.base = runGuardedCell(
            name + phase1, "cell/" + name + phase1 + "/", opts,
            SweepLedger{}, progress, cap_rows[w],
            [&](unsigned, obs::HeartbeatSlot* beat) {
                ws = sampled
                    ? profileSampledStream(name, emulators.front(),
                                           platform, opts, beat)
                    : captureWorkloadStream(name, platform, opts, beat);
                return ws.base;
            });
        return ws;
    };
    if (staged && profile_phase && !sampled) {
        // Replay mode: every configuration cell consumes the stream,
        // so the capture phase is a barrier ahead of all of them.
        const unsigned jobs = static_cast<unsigned>(
            std::min<std::size_t>(opts.jobs, std::max<std::size_t>(n_w,
                                                                   1)));
        if (jobs > 1) {
            ThreadPool pool(jobs);
            std::vector<std::future<WorkloadStream>> futures;
            futures.reserve(n_w);
            for (std::size_t w = 0; w < n_w; ++w) {
                futures.push_back(pool.submit([&capture_task, w] {
                    return capture_task(w);
                }));
            }
            for (std::size_t w = 0; w < n_w; ++w)
                streams[w] = futures[w].get();
        } else {
            for (std::size_t w = 0; w < n_w; ++w)
                streams[w] = capture_task(w);
        }
    }

    const std::size_t n_flat = n_w * n_pc;
    const unsigned jobs = static_cast<unsigned>(
        std::min<std::size_t>(opts.jobs, std::max<std::size_t>(n_flat,
                                                               1)));

    // Sampled phase-2 rigs. The broadcast rig (every configuration
    // attached) is the most expensive rig in the harness to build, so
    // a serial sweep with no isolation requirement builds one and
    // reuses it across workloads -- replays reset the emulators at
    // entry, so results are identical either way. Parallel sweeps and
    // --keep-going / --retry-cells isolate per cell, exactly as
    // combined mode does (a poisoned rig must not leak into the next
    // cell).
    CoSimParams sampled_params;
    std::vector<std::unique_ptr<CoSimulation>> sampled_rigs;
    bool sampled_isolate = true;
    if (sampled) {
        sampled_params.platform = platform;
        sampled_params.emulators = emulators;
        sampled_params.emulationThreads = opts.emuThreads;
        sampled_params.degradeToSerial = opts.degradeSerial;
        sampled_isolate =
            jobs > 1 || opts.keepGoing || opts.retryCells > 0;
        sampled_rigs.resize(sampled_isolate ? n_w : 1);
    }

    auto run_one = [&](std::size_t w, std::size_t c) {
        const std::string& name = opts.workloads[w];
        const std::string label =
            sampled ? name + "/sampled" : name + "/" + ticks[c];
        if (sampled && profile_phase) {
            // A workload's stream feeds only its own broadcast cell, so
            // the profile runs fused in the same task -- a barrier
            // between the phases would serialize the sweep on its
            // slowest profile for no consumer.
            streams[w] = capture_task(w);
        }
        if (staged && streams[w].base.failed) {
            CellOutput cell;
            cell.failed = true;
            cell.mw.name = label;
            cell.mw.status = "failed";
            cell.mw.attempts =
                std::max<std::uint64_t>(streams[w].base.mw.attempts, 1);
            cell.mw.error = (sampled ? "profile failed: "
                                     : "capture failed: ") +
                            streams[w].base.mw.error;
            if (progress != nullptr) {
                progress->cellFinished(cfg_rows[w * n_pc + c], false, 0.0,
                                       cell.mw.error);
            }
            return cell;
        }
        return runGuardedCell(
            label, "cell/" + label + "/", opts, ledger, progress,
            cfg_rows[w * n_pc + c],
            [&, w, c](unsigned attempt_no, obs::HeartbeatSlot* beat) {
                if (sampled) {
                    std::unique_ptr<CoSimulation>& rig =
                        sampled_rigs[sampled_isolate ? w : 0];
                    if (rig == nullptr ||
                        (sampled_isolate && attempt_no > 1)) {
                        // Lazy build (and rebuild on retry, since the
                        // failed attempt may have poisoned the rig);
                        // the construction interval must not read as
                        // watchdog silence.
                        if (beat != nullptr)
                            beat->pulse();
                        rig = std::make_unique<CoSimulation>(
                            sampled_params);
                        if (beat != nullptr)
                            beat->watch().skipGap();
                    }
                    rig->setHeartbeat(beat);
                    return sampledWorkloadCell(*rig, streams[w], name,
                                               platform, opts);
                }
                return replay
                    ? replayConfigCell(streams[w], name, c, emulators[c],
                                       ticks[c], platform, opts, beat)
                    : runExecCell(name, c, emulators[c], ticks[c],
                                  platform, opts, beat);
            });
    };

    std::vector<CellOutput> flat(n_flat);
    if (jobs > 1) {
        ThreadPool pool(jobs);
        std::vector<std::future<CellOutput>> futures;
        futures.reserve(n_flat);
        for (std::size_t w = 0; w < n_w; ++w) {
            for (std::size_t c = 0; c < n_pc; ++c) {
                futures.push_back(
                    pool.submit([&run_one, w, c] { return run_one(w, c); }));
            }
        }
        for (std::size_t i = 0; i < n_flat; ++i)
            flat[i] = futures[i].get();
    } else {
        for (std::size_t w = 0; w < n_w; ++w) {
            for (std::size_t c = 0; c < n_pc; ++c) {
                debug("sweep cell %s (%zu/%zu)",
                      opts.workloads[w].c_str(), w * n_pc + c + 1,
                      n_flat);
                flat[w * n_pc + c] = run_one(w, c);
            }
        }
    }

    // Narrate what the sampled sweep fast-forwarded past, one event
    // per skipped window span (emitted here, after the cells, so the
    // stream's ordering is deterministic).
    if (sampled && progress != nullptr) {
        for (std::size_t w = 0; w < n_w; ++w) {
            if (streams[w].hasPlan && !streams[w].base.failed)
                emitSkipEvents(*progress, opts.workloads[w],
                               streams[w].plan);
        }
    }

    std::vector<CellOutput> cells;
    cells.reserve(n_w);
    for (std::size_t w = 0; w < n_w; ++w) {
        std::vector<CellOutput> configs(
            std::make_move_iterator(flat.begin() + w * n_pc),
            std::make_move_iterator(flat.begin() + (w + 1) * n_pc));
        const CellOutput* base =
            profile_phase ? &streams[w].base : nullptr;
        cells.push_back(mergeWorkloadCells(opts.workloads[w], base,
                                           configs));
    }
    return cells;
}

} // namespace

FigureData
SweepRunner::runFigure(const std::string& figure_id,
                       const PlatformParams& platform,
                       const std::vector<DragonheadParams>& emulators_in,
                       const std::vector<std::string>& ticks)
{
    // --sample-period-us: retime every configuration's CB window. The
    // override applies to profiling and sampled replay alike, so plan
    // windows keep aligning with the CB sample series they index.
    std::vector<DragonheadParams> emulators = emulators_in;
    if (opts_.samplePeriodUs != 0) {
        for (DragonheadParams& emu : emulators)
            emu.cb.samplePeriodUs = opts_.samplePeriodUs;
    }

    // --run-cell child re-entry: by the time the figure's parameters
    // are fully resolved (retiming included) the child runs exactly one
    // cell body against them and exits -- it never reaches the sweep
    // machinery below.
    if (!opts_.runCell.empty())
        runCellChild(platform, emulators, ticks, opts_);

    FigureData figure(figure_id, "cache configuration", ticks);

    obs::TraceSession& trace = obs::TraceSession::global();
    bool own_trace = !opts_.traceFile.empty() && !trace.active();
    if (own_trace)
        trace.start();

    const std::size_t n_cells = opts_.workloads.size();

    // Whatever kills this run -- a failed cell, a fatal() in an
    // artifact writer -- a postmortem lands next to the run artifacts.
    obs::installFatalPostmortem(opts_.outDir + "/postmortem.json");

    // Live telemetry. Declared before the rigs vector below so cells'
    // heartbeat slots outlive every rig that publishes into them.
    std::unique_ptr<obs::SweepProgress> progress;
    if (opts_.progress || !opts_.progressFile.empty()) {
        obs::SweepProgress::Options popts;
        popts.tty = opts_.progress;
        popts.file = opts_.progressFile;
        try {
            progress = std::make_unique<obs::SweepProgress>(popts);
        } catch (const IoError& e) {
            fatal("progress: %s", e.what());
        }
    }
    std::size_t total_cells = n_cells;
    if (opts_.cells == CellMode::Exec ||
        opts_.cells == CellMode::Replay) {
        total_cells = n_cells * emulators.size();
    }
    if (opts_.cells != CellMode::Combined) {
        // Mirrors runPerConfigCells' phase-1 registration (sampled
        // phase 2 is one broadcast cell per workload, already counted).
        const bool profile_phase =
            (opts_.cells == CellMode::Replay &&
             opts_.replayBase.empty()) ||
            (opts_.cells == CellMode::Sampled &&
             (opts_.replayBase.empty() || opts_.planBase.empty()));
        if (profile_phase)
            total_cells += n_cells;
    }

    // Crash safety: the write-ahead journal, and -- when resuming --
    // the verified results of cells an interrupted sweep already
    // finished. A "done" journal record is only trusted after its
    // artifact re-digests to the recorded FNV *and* parses back into a
    // CellOutput; anything less (deleted artifact, torn write, stale
    // "running" entry) silently re-runs the cell.
    std::unique_ptr<SweepJournal> journal;
    std::map<std::string, CellOutput> resumed_cells;
    std::atomic<std::uint64_t> resume_skipped{0};
    SweepLedger ledger;
    if (!opts_.journalFile.empty()) {
        const std::uint64_t config_digest =
            sweepConfigDigest(figure_id, platform, opts_, ticks);
        ensureOutputDir(opts_.outDir + "/cells");
        std::uint64_t next_seq = 0;
        const bool resuming = !opts_.resumeFrom.empty();
        if (resuming) {
            JournalState js;
            std::string jerr;
            fatal_if(!JournalState::load(opts_.resumeFrom, &js, &jerr),
                     "resume: %s", jerr.c_str());
            fatal_if(js.configDigest != config_digest,
                     "resume: journal '%s' records a different sweep "
                     "configuration (digest %llu, this run %llu); "
                     "refusing to mix sweeps",
                     opts_.resumeFrom.c_str(),
                     static_cast<unsigned long long>(js.configDigest),
                     static_cast<unsigned long long>(config_digest));
            // Repair a torn tail before appending: the fragment of the
            // interrupted final record must not concatenate with the
            // first record this run writes.
            if (opts_.journalFile == opts_.resumeFrom &&
                ::truncate(opts_.resumeFrom.c_str(),
                           static_cast<off_t>(js.validBytes)) != 0) {
                fatal("resume: cannot repair journal tail '%s'",
                      opts_.resumeFrom.c_str());
            }
            for (const auto& entry : js.cells) {
                const JournalCell& jc = entry.second;
                if (jc.state != "done" && jc.state != "skipped")
                    continue;
                std::uint64_t digest = 0;
                std::uint64_t bytes = 0;
                std::string text;
                CellOutput cell;
                std::string perr;
                if (!digestFileFnv(jc.artifact, &digest, &bytes) ||
                    digest != jc.artifactDigest ||
                    bytes != jc.artifactBytes ||
                    !readWholeFile(jc.artifact, &text) ||
                    !parseCellResult(text, &cell, &perr)) {
                    warn("resume: artifact for cell '%s' does not "
                         "verify; re-running it",
                         entry.first.c_str());
                    continue;
                }
                resumed_cells.emplace(entry.first, std::move(cell));
            }
            next_seq = js.nextSeq;
        }
        try {
            journal = std::make_unique<SweepJournal>(opts_.journalFile,
                                                     next_seq);
        } catch (const IoError& e) {
            fatal("journal: %s", e.what());
        }
        if (next_seq == 0) {
            journal->sweepPlan(figure_id, config_digest, total_cells);
        } else {
            journal->resumed(
                resumed_cells.size(),
                total_cells - std::min(total_cells,
                                       resumed_cells.size()));
        }
        ledger.journal = journal.get();
        if (resuming)
            ledger.resumed = &resumed_cells;
        ledger.skipped = &resume_skipped;
    }

    if (progress != nullptr) {
        if (opts_.cells == CellMode::Combined) {
            // Row i is workload i; per-config modes register their own
            // rows inside runPerConfigCells.
            for (const std::string& name : opts_.workloads)
                progress->addCell(name);
        }
        progress->start();
        progress->event("sweep_start",
                        "\"figure\":" + obs::json::quote(figure_id) +
                            ",\"cells\":" + std::to_string(total_cells));
    }

    obs::RunManifest manifest;
    manifest.figureId = figure_id;
    manifest.platform = platform.name;
    manifest.nCores = platform.nCores;
    manifest.scale = opts_.scale;
    manifest.seed = opts_.seed;
    manifest.seedSource = opts_.seedSource;
    manifest.configTicks = ticks;
    manifest.cellMode = toString(opts_.cells);
    manifest.isolatedCells = opts_.isolateCells;
    manifest.journalPath = opts_.journalFile;
    manifest.resumed = !opts_.resumeFrom.empty();

    // Combined mode keeps its rigs alive to the end of the figure so
    // the unprefixed final-rig stats view stays valid.
    std::vector<std::unique_ptr<CoSimulation>> rigs;

    auto wall0 = std::chrono::steady_clock::now();
    std::vector<CellOutput> cells;
    if (opts_.cells == CellMode::Combined) {
        CoSimParams params;
        params.platform = platform;
        params.platform.dex.hostThreads = opts_.dexThreads;
        params.platform.dex.degradeSerial = opts_.degradeSerial;
        params.emulators = emulators;
        params.emulationThreads = opts_.emuThreads;
        params.degradeToSerial = opts_.degradeSerial;

        const unsigned jobs = static_cast<unsigned>(
            std::min<std::size_t>(opts_.jobs,
                                  std::max<std::size_t>(n_cells, 1)));

        // One rig per cell when cells run in parallel or must fail
        // independently (--keep-going / --retry-cells: a poisoned rig
        // must not leak into the next cell); a single reused rig (the
        // original behaviour) when serial. Workload executions never
        // share simulator state either way -- the platform resets per
        // run -- so the modes produce identical results. Isolated rigs
        // are built lazily *inside* their cell so parallel sweeps do
        // not serialise n_cells rig constructions up front -- each
        // worker thread pays for (and times) its own cell's rig.
        // Under --isolate-cells no in-process rig ever runs (the cell
        // bodies execute in child processes), so the lazy vector stays
        // all-null and the unprefixed final-rig stats view below is
        // simply absent -- the per-cell prefixed stats carry the data.
        const bool isolate = opts_.isolateCells || jobs > 1 ||
                             opts_.keepGoing || opts_.retryCells > 0;
        if (isolate) {
            rigs.resize(n_cells); // filled per cell, inside run_cell
        } else {
            rigs.reserve(1);
            rigs.push_back(std::make_unique<CoSimulation>(params));
        }
        manifest.hostJobs = jobs;
        manifest.emulationThreads =
            (opts_.emuThreads == 0 || emulators.empty())
                ? 0
                : static_cast<unsigned>(std::min<std::size_t>(
                      opts_.emuThreads, emulators.size()));
        manifest.dexThreads = opts_.dexThreads;

        const bool replay = !opts_.replayBase.empty();
        auto run_cell = [&](std::size_t i) {
            const std::string& name = opts_.workloads[i];
            return runGuardedCell(
                name, "cell/" + name + "/", opts_, ledger,
                progress.get(), i,
                [&, i](unsigned attempt_no, obs::HeartbeatSlot* beat) {
                    std::unique_ptr<CoSimulation>& rig =
                        rigs[isolate ? i : 0];
                    if (isolate && (rig == nullptr || attempt_no > 1)) {
                        // First attempt: lazy per-cell construction (see
                        // above). Retry: the failed attempt may have
                        // poisoned the rig (a dead emulation worker
                        // stays dead), so rebuild on a fresh one.
                        // Close any preceding silence honestly before
                        // the build starts; the construction interval
                        // itself is excised below.
                        if (beat != nullptr)
                            beat->pulse();
                        std::uint64_t t0 = hostClockNowUs();
                        rig = std::make_unique<CoSimulation>(params);
                        if (obs::metrics::enabled()) {
                            static const obs::metrics::Histogram setup_ms =
                                obs::metrics::histogram(
                                    "sweep.cell_setup_ms",
                                    "per-cell rig construction wall "
                                    "milliseconds");
                            setup_ms.record((hostClockNowUs() - t0) /
                                            1000);
                        }
                        // Construction emits no heartbeats and its wall
                        // time is already accounted for above, so it
                        // must not read as watchdog silence.
                        if (beat != nullptr)
                            beat->watch().skipGap();
                    }
                    rig->setHeartbeat(beat);
                    return replay
                        ? replayCombinedCell(*rig, name, platform, opts_)
                        : runCombinedCell(*rig, name, platform, opts_);
                });
        };
        cells.resize(n_cells);
        if (jobs > 1) {
            // Only the aggregation below touches shared state; each cell
            // owns its rig and its workload.
            ThreadPool pool(jobs);
            std::vector<std::future<CellOutput>> futures;
            futures.reserve(n_cells);
            for (std::size_t i = 0; i < n_cells; ++i) {
                futures.push_back(
                    pool.submit([&run_cell, i] { return run_cell(i); }));
            }
            for (std::size_t i = 0; i < n_cells; ++i)
                cells[i] = futures[i].get();
        } else {
            for (std::size_t i = 0; i < n_cells; ++i) {
                debug("sweep %s: starting %s (%zu/%zu)",
                      figure_id.c_str(), opts_.workloads[i].c_str(),
                      i + 1, n_cells);
                cells[i] = run_cell(i);
            }
        }
    } else {
        manifest.hostJobs = opts_.jobs;
        manifest.emulationThreads = opts_.emuThreads;
        manifest.dexThreads = opts_.dexThreads;
        cells = runPerConfigCells(opts_, platform, emulators, ticks,
                                  ledger, progress.get());
    }
    manifest.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();

    // Close the progress stream before printing the summary (and
    // before a failed cell can fatal() past the destructors): the
    // counts are workload rows, matching the summary below.
    if (progress != nullptr) {
        std::size_t n_ok = 0;
        std::size_t n_failed = 0;
        for (const CellOutput& c : cells)
            (c.failed ? n_failed : n_ok) += 1;
        progress->event("sweep_finish",
                        "\"ok\":" + std::to_string(n_ok) +
                            ",\"failed\":" + std::to_string(n_failed));
        progress->stop();
        if (!opts_.progressFile.empty())
            inform("progress: %s", opts_.progressFile.c_str());
    }
    if (journal != nullptr) {
        std::size_t n_ok = 0;
        std::size_t n_failed = 0;
        for (const CellOutput& c : cells)
            (c.failed ? n_failed : n_ok) += 1;
        journal->sweepDone(n_ok, n_failed);
    }

    // Aggregate in workload order regardless of completion order, so the
    // figure, manifest and digest outputs are deterministic.
    double host_sum = 0.0;
    bool any_failed = false;
    std::string first_error;
    DigestManifest digests;
    for (std::size_t i = 0; i < n_cells; ++i) {
        CellOutput& cell = cells[i];
        if (cell.failed) {
            const std::string& name = opts_.workloads[i];
            if (cell.mw.name.empty())
                cell.mw.name = name;
            // Drop whatever the failed cell registered before dying so
            // the stats dump never carries a half-populated namespace.
            obs::StatsRegistry::global().removePrefix("cell/" + name +
                                                      "/");
            manifest.workloads.push_back(cell.mw);
            figure.addFailedSeries(name, cell.mw.status);
            if (!any_failed)
                first_error = cell.mw.error;
            any_failed = true;
            std::printf("  %-9s FAILED after %llu attempt(s): %s  "
                        "[%zu/%zu]\n", name.c_str(),
                        static_cast<unsigned long long>(cell.mw.attempts),
                        cell.mw.error.c_str(), i + 1, n_cells);
            continue;
        }
        host_sum += cell.mw.hostSeconds;
        manifest.guestExecutions += cell.guestExecutions;
        manifest.captureTxns += cell.captureTxns;
        manifest.captureBytes += cell.captureBytes;
        manifest.captureSeconds += cell.captureSeconds;
        manifest.replayTxns += cell.replayTxns;
        manifest.replayBytes += cell.replayBytes;
        manifest.replaySeconds += cell.replaySeconds;
        if (cell.hasDigest)
            digests.add(cell.mw.name, cell.streamTxns, cell.streamDigest);
        manifest.workloads.push_back(cell.mw);
        figure.addSeries(cell.mw.name, cell.series,
                         std::move(cell.points));
        figure.setStatus(cell.mw.name, cell.mw.status);
        if (cell.mw.sampling.active && cell.mw.sampling.hasError)
            figure.setSamplingError(cell.mw.name,
                                    cell.mw.sampling.errMpki);
        std::printf("  %-9s %8.1fM inst  %6.2fs host  %5.1f MIPS  "
                    "verified=%s%s  [%zu/%zu]\n", cell.mw.name.c_str(),
                    static_cast<double>(cell.mw.totalInsts) / 1e6,
                    cell.mw.hostSeconds, cell.mw.simMips,
                    cell.mw.verified ? "yes" : "NO",
                    cell.mw.replayedFrom.empty() ? "" : "  replayed",
                    i + 1, n_cells);
        if (cell.mw.sampling.active) {
            const obs::ManifestSampling& s = cell.mw.sampling;
            if (s.hasError) {
                std::printf("            sampled: %llu intervals, "
                            "%.1f%% coverage, mpki err %.2f%%\n",
                            static_cast<unsigned long long>(s.intervals),
                            100.0 * s.coverage, 100.0 * s.errMpki);
            } else {
                std::printf("            sampled: %llu intervals, "
                            "%.1f%% coverage (no reference)\n",
                            static_cast<unsigned long long>(s.intervals),
                            100.0 * s.coverage);
            }
        }
    }
    manifest.hostSpeedup = manifest.wallSeconds > 0.0
        ? host_sum / manifest.wallSeconds
        : 0.0;

    // A failed cell without --keep-going fails the run *before* any
    // artifact is written: a nonzero exit must never leave behind a
    // stats dump or manifest that looks like a completed figure.
    if (any_failed && !opts_.keepGoing) {
        fatal("sweep %s: cell failed: %s (use --keep-going to finish "
              "the healthy cells)", figure_id.c_str(),
              first_error.c_str());
    }

    // --plan-out from a full-detail run: cluster every workload's CB
    // series into a sampling plan for later --cells=sampled sweeps.
    // (Sampled mode writes its plans during the profiling phase
    // instead, where generation is cell-isolated.)
    if (!opts_.planOutBase.empty() &&
        opts_.cells != CellMode::Sampled && !emulators.empty()) {
        for (const CellOutput& cell : cells) {
            if (cell.failed)
                continue;
            if (cell.cbSamples.empty()) {
                warn("plan-out: %s recorded no CB samples; skipped",
                     cell.mw.name.c_str());
                continue;
            }
            SamplingPlan plan = makePlan(cell.cbSamples, cell.mw.name,
                                         emulators.front().cb, opts_);
            const std::string path =
                planPath(opts_.planOutBase, cell.mw.name);
            try {
                plan.writeFile(path);
            } catch (const IoError& e) {
                fatal("plan-out: %s", e.what());
            }
            inform("plan: %s (%zu intervals, %.1f%% coverage)",
                   path.c_str(), plan.intervals.size(),
                   100.0 * plan.coverage());
        }
    }

    // Publish the rig's component stats and the host profile through the
    // uniform registry dumpers. In combined mode the last rig's live
    // counters are registered -- the same "state after the final
    // workload" view the reused serial rig exposes; per-config modes
    // rely on the frozen cell/<workload>/<config>/ snapshots instead.
    obs::StatsRegistry& registry = obs::StatsRegistry::global();
    // Lazily built cells can leave trailing null slots (e.g. a cell
    // that failed before its rig was constructed): register the last
    // rig that actually exists.
    for (auto it = rigs.rbegin(); it != rigs.rend(); ++it) {
        if (*it != nullptr) {
            (*it)->registerStats(registry);
            break;
        }
    }
    registry.add(obs::HostProfiler::global().statsGroup());
    if (obs::metrics::enabled()) {
        // Telemetry scalars (counter values, histogram count/sum/mean)
        // ride the same dumpers as every other stats group.
        registry.add(
            obs::metrics::Registry::global().statsGroup("metrics"));
    }

    if (manifest.captureTxns > 0) {
        stats::Group g("capture");
        const double txns = static_cast<double>(manifest.captureTxns);
        const double bytes = static_cast<double>(manifest.captureBytes);
        const double secs = manifest.captureSeconds;
        g.add("txns", [txns] { return txns; });
        g.add("bytes", [bytes] { return bytes; });
        g.add("encode_seconds", [secs] { return secs; });
        registry.add(std::move(g));
    }
    if (manifest.replayTxns > 0) {
        stats::Group g("replay");
        const double txns = static_cast<double>(manifest.replayTxns);
        const double bytes = static_cast<double>(manifest.replayBytes);
        const double secs = manifest.replaySeconds;
        g.add("txns", [txns] { return txns; });
        g.add("bytes", [bytes] { return bytes; });
        g.add("seconds", [secs] { return secs; });
        registry.add(std::move(g));
    }

    if (!opts_.statsFile.empty()) {
        registry.writeFile(opts_.statsFile);
        inform("stats: %s", opts_.statsFile.c_str());
    }

    if (!opts_.digestFile.empty()) {
        fatal_if(digests.entries.empty(),
                 "--digest=%s: no stream digests were computed",
                 opts_.digestFile.c_str());
        digests.writeFile(opts_.digestFile);
        inform("digests: %s", opts_.digestFile.c_str());
    }

    if (!opts_.metricsFile.empty()) {
        try {
            writeFileAtomic(opts_.metricsFile,
                            obs::metrics::renderOpenMetrics(
                                obs::metrics::Registry::global()
                                    .snapshot()));
        } catch (const IoError& e) {
            fatal("metrics: %s", e.what());
        }
        inform("metrics: %s", opts_.metricsFile.c_str());
    }

    const obs::HostProfiler& prof = obs::HostProfiler::global();
    for (const auto& p : prof.phases())
        manifest.hostPhases.push_back({p.name, p.seconds, p.calls});
    manifest.hostSimMips = prof.simulatedMips();
    manifest.resumeSkipped =
        resume_skipped.load(std::memory_order_relaxed);
    if (!opts_.manifestFile.empty()) {
        manifest.writeJson(opts_.manifestFile);
        inform("manifest: %s", opts_.manifestFile.c_str());
    }

    if (own_trace) {
        trace.stop();
        trace.writeJson(opts_.traceFile);
        inform("trace: %s (%zu events)", opts_.traceFile.c_str(),
               trace.eventCount());
    }
    return figure;
}

FigureData
SweepRunner::runCacheSizeFigure(const std::string& figure_id,
                                const PlatformParams& platform)
{
    std::vector<std::string> ticks;
    for (std::uint64_t size : presets::llcSizeSweep())
        ticks.push_back(formatSize(size));
    return runFigure(figure_id, platform,
                     presets::llcSizeSweepEmulators(), ticks);
}

FigureData
SweepRunner::runLineSizeFigure(const std::string& figure_id,
                               const PlatformParams& platform)
{
    std::vector<std::string> ticks;
    for (std::uint32_t line : presets::lineSizeSweep())
        ticks.push_back(formatSize(line));
    return runFigure(figure_id, platform,
                     presets::lineSizeSweepEmulators(), ticks);
}

} // namespace cosim
