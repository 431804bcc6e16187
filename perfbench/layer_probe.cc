/**
 * @file
 * Outside-in layer probe for the benchmark.
 *
 * Re-runs one figure's (or Table 2's) work through each layer's public
 * entry points and times every call from outside the program:
 *
 *   workloads  createWorkload, Workload::setUp (via HostProfiler "setup")
 *   softsdv    VirtualPlatform::run, the bus drained into this probe's
 *              recording snooper instead of the emulators
 *   trace      FsbStreamWriter::appendBatch / FsbStreamReader::nextChunk
 *   dragonhead Dragonhead::observeBatch per LLC configuration, fed the
 *              recorded stream in the writer's 4096-transaction chunks
 *   core       the CoSimulation constructor with the figure's emulators
 *
 * Every call gets a span (name, start, end, parent) kept in memory and
 * written as Chrome trace-event JSON at exit. Totals go to stdout as one
 * JSON object for perfbench/run.py, which derives the per-layer metrics.
 *
 * With --setup-only the probe makes only the set-up calls
 * (createWorkload + Workload::setUp) and reports their time.
 *
 * Usage:
 *   layer_probe --figure=fig4|fig5|fig6|fig7|table2 --scale=S --seed=N
 *               --workloads=A,B,... [--trace-out=FILE] [--setup-only]
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/str.hh"
#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "obs/host_profiler.hh"
#include "trace/fsb_capture.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

namespace {

using Clock = std::chrono::steady_clock;

/** Decoded chunks each configuration consumes in one go (~6 MB). */
constexpr std::size_t kBlockChunks = 64;

/** In-memory span store; one entry per timed call. */
class Tracer
{
  public:
    struct Span
    {
        const char* name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
    };

    int
    begin(const char* name, int parent)
    {
        spans_.push_back({name, Clock::now(), {}, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    end(int id)
    {
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = Clock::now();
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    std::size_t size() const { return spans_.size(); }

    std::string
    chromeJson() const
    {
        std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        const Clock::time_point origin =
            spans_.empty() ? Clock::now() : spans_.front().start;
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out += strFormat(
                "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"id\":%zu,\"parent\":%d}}",
                i == 0 ? "" : ",", s.name, us(s.start),
                us(s.end) - us(s.start), i, s.parent);
        }
        out += "\n]}\n";
        return out;
    }

  private:
    std::vector<Span> spans_;
};

/** RAII span that adds its duration to @p total on close. */
class Timed
{
  public:
    Timed(Tracer& tracer, const char* name, int parent, double& total)
        : tracer_(tracer), id_(tracer.begin(name, parent)), total_(total)
    {
    }
    ~Timed() { total_ += tracer_.end(id_); }

    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    int id() const { return id_; }

  private:
    Tracer& tracer_;
    int id_;
    double& total_;
};

/** Encodes the bus stream and times every encode call. */
class RecordingSnooper : public BusSnooper
{
  public:
    RecordingSnooper(Tracer& tracer, int parent, const FsbStreamMeta& meta,
                     double& encode_s)
        : tracer_(tracer), parent_(parent), writer_(meta),
          encodeS_(encode_s)
    {
    }

    void observe(const BusTransaction& txn) override
    {
        observeBatch(&txn, 1);
    }

    void
    observeBatch(const BusTransaction* txns, std::size_t n) override
    {
        Timed t(tracer_, "trace.FsbStreamWriter::appendBatch", parent_,
                encodeS_);
        writer_.appendBatch(txns, n);
    }

    FsbStreamWriter& writer() { return writer_; }

  private:
    Tracer& tracer_;
    int parent_;
    FsbStreamWriter writer_;
    double& encodeS_;
};

/** "4MB-64B", "32MB-1KB": the benchmark's configuration names. */
std::string
configName(const DragonheadParams& p)
{
    const std::uint32_t line = p.llc.lineSize;
    return formatSize(p.llc.size) + "-" +
           (line >= 1024 ? std::to_string(line / 1024) + "KB"
                         : std::to_string(line) + "B");
}

/** The size sweep at 64 B lines, then the line sweep at 32 MB. */
std::vector<DragonheadParams>
allConfigs()
{
    std::vector<DragonheadParams> out = presets::llcSizeSweepEmulators();
    for (const DragonheadParams& p : presets::lineSizeSweepEmulators())
        if (p.llc.lineSize != 64)
            out.push_back(p);
    return out;
}

/** The Table 2 platform, as bench/table2_characteristics.cc builds it. */
PlatformParams
table2Platform()
{
    PlatformParams platform;
    platform.name = "P4";
    platform.nCores = 1;
    platform.cpu = presets::pentium4Cpu();
    platform.dram.baseLatency = 350;
    platform.dex.quantumInsts = 100000;
    return platform;
}

struct Options
{
    std::string figure;
    double scale = 1.0;
    std::uint64_t seed = 42;
    std::vector<std::string> workloads;
    std::string traceOut;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "layer_probe: %s\nusage: layer_probe "
                 "--figure=fig4|fig5|fig6|fig7|table2 --scale=S --seed=N "
                 "--workloads=A,B,... [--trace-out=FILE] [--setup-only]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char* key) -> const char* {
            const std::string k = std::string(key) + "=";
            return a.compare(0, k.size(), k) == 0 ? argv[i] + k.size()
                                                  : nullptr;
        };
        if (const char* v = value("--figure"))
            o.figure = v;
        else if (const char* v = value("--scale"))
            o.scale = std::strtod(v, nullptr);
        else if (const char* v = value("--seed"))
            o.seed = std::strtoull(v, nullptr, 10);
        else if (const char* v = value("--workloads"))
            o.workloads = split(v, ',');
        else if (const char* v = value("--trace-out"))
            o.traceOut = v;
        else if (a == "--setup-only")
            o.setupOnly = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workloads.empty())
        usage("--workloads is required");
    if (!(o.scale > 0.0))
        usage("--scale must be positive");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = parseArgs(argc, argv);

    PlatformParams platform;
    std::vector<DragonheadParams> figureConfigs;
    if (opts.figure == "fig4" || opts.figure == "fig5" ||
        opts.figure == "fig6") {
        platform = opts.figure == "fig4"   ? presets::scmp()
                   : opts.figure == "fig5" ? presets::mcmp()
                                           : presets::lcmp();
        figureConfigs = presets::llcSizeSweepEmulators();
    } else if (opts.figure == "fig7") {
        platform = presets::lcmp();
        figureConfigs = presets::lineSizeSweepEmulators();
    } else if (opts.figure == "table2") {
        platform = table2Platform();
    } else {
        usage("--figure must be fig4, fig5, fig6, fig7 or table2");
    }

    Tracer tracer;
    obs::HostProfiler& prof = obs::HostProfiler::global();
    double create_s = 0, setup_s = 0, run_span_s = 0, encode_s = 0,
           decode_s = 0, rig_build_s = 0;
    std::uint64_t insts = 0, l1_acc = 0, l1_miss = 0, l2_miss = 0,
                  txns = 0, stream_bytes = 0;
    bool verified = true;

    const std::vector<DragonheadParams> configs = allConfigs();
    std::vector<std::string> names;
    std::vector<std::unique_ptr<Dragonhead>> emulators;
    std::vector<double> observe_s(configs.size(), 0.0);
    std::vector<std::uint64_t> misses(configs.size(), 0);
    std::vector<bool> inFigure(configs.size(), false);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        names.push_back(configName(configs[c]));
        for (const DragonheadParams& f : figureConfigs)
            inFigure[c] = inFigure[c] || configName(f) == names[c];
    }
    std::string mpkiJson;

    const int root = tracer.begin("probe", -1);
    if (opts.setupOnly) {
        VirtualPlatform vp(platform);
        WorkloadConfig cfg;
        cfg.nThreads = 1;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;
        for (const std::string& name : opts.workloads) {
            std::unique_ptr<Workload> wl;
            {
                Timed t(tracer, "workloads.createWorkload", root, create_s);
                wl = createWorkload(name, opts.scale);
            }
            vp.allocator().reset();
            {
                Timed t(tracer, "workloads.Workload::setUp", root, setup_s);
                wl->setUp(cfg, vp.allocator());
            }
            wl->tearDown();
        }
    } else {
        {
            // The figure binaries build one rig per figure; Table 2 builds
            // a bare platform (CoSimulation needs FSB-emitting cores).
            Timed t(tracer,
                    figureConfigs.empty() ? "core.VirtualPlatform"
                                          : "core.CoSimulation",
                    root, rig_build_s);
            if (figureConfigs.empty()) {
                VirtualPlatform bare(platform);
            } else {
                CoSimParams params;
                params.platform = platform;
                params.emulators = figureConfigs;
                CoSimulation rig(params);
            }
        }
        for (const DragonheadParams& p : configs)
            emulators.push_back(std::make_unique<Dragonhead>(p));

        VirtualPlatform vp(platform);
        vp.fsb().setBatchCapacity(4096);
        WorkloadConfig cfg;
        cfg.nThreads = platform.nCores;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;

        for (const std::string& name : opts.workloads) {
            const int wl_span = tracer.begin("workload", root);
            std::unique_ptr<Workload> wl;
            {
                Timed t(tracer, "workloads.createWorkload", wl_span,
                        create_s);
                wl = createWorkload(name, opts.scale);
            }
            FsbStreamMeta meta;
            meta.workload = wl->name();
            meta.platform = platform.name;
            meta.nCores = platform.nCores;
            meta.seed = opts.seed;
            meta.scale = opts.scale;

            const double setup0 = prof.seconds("setup");
            const int run_span =
                tracer.begin("softsdv.VirtualPlatform::run", wl_span);
            RecordingSnooper rec(tracer, run_span, meta, encode_s);
            vp.fsb().attach(&rec);
            const RunResult r = vp.run(*wl, cfg);
            vp.fsb().detach(&rec);
            run_span_s += tracer.end(run_span);
            rec.writer().finish();
            txns += rec.writer().txnCount();
            stream_bytes += rec.writer().encodedBytes();

            // The stream is decoded once, a block of chunks at a time, and
            // each configuration consumes a whole block on its own: its
            // time is that LLC's cost without the host-cache contention of
            // interleaving configurations per transaction, which the
            // residual keeps.
            FsbStreamReader reader;
            std::string err;
            if (!reader.openBuffer(rec.writer().share(), &err)) {
                std::fprintf(stderr, "layer_probe: %s\n", err.c_str());
                return 1;
            }
            for (auto& dh : emulators)
                dh->reset();
            std::vector<std::vector<BusTransaction>> block(kBlockChunks);
            for (bool more = true; more;) {
                std::size_t filled = 0;
                while (filled < block.size()) {
                    Timed d(tracer, "trace.FsbStreamReader::nextChunk",
                            wl_span, decode_s);
                    more = reader.nextChunk(block[filled]);
                    if (!more)
                        break;
                    ++filled;
                }
                for (std::size_t c = 0; c < emulators.size(); ++c) {
                    for (std::size_t k = 0; k < filled; ++k) {
                        Timed o(tracer,
                                "dragonhead.Dragonhead::observeBatch",
                                wl_span, observe_s[c]);
                        emulators[c]->observeBatch(block[k].data(),
                                                   block[k].size());
                    }
                }
            }
            if (!reader.ok()) {
                std::fprintf(stderr, "layer_probe: %s\n",
                             reader.error().c_str());
                return 1;
            }
            tracer.end(wl_span);
            const double wl_setup = prof.seconds("setup") - setup0;
            setup_s += wl_setup;
            insts += r.totalInsts;
            l1_acc += r.l1.accesses;
            l1_miss += r.l1.misses;
            l2_miss += r.l2.misses;
            verified = verified && r.verified;

            mpkiJson += strFormat("%s\"%s\":{", mpkiJson.empty() ? "" : ",",
                                  wl->name().c_str());
            bool first = true;
            for (std::size_t c = 0; c < emulators.size(); ++c) {
                const LlcResults llc = emulators[c]->results();
                misses[c] += llc.misses;
                if (!inFigure[c])
                    continue;
                mpkiJson += strFormat("%s\"%s\":\"%.10g\"",
                                      first ? "" : ",", names[c].c_str(),
                                      llc.mpki());
                first = false;
            }
            mpkiJson += "}";
        }
    }
    tracer.end(root);

    // Cost of one span, to report the tracing overhead of this run.
    const std::size_t nSpans = tracer.size();
    double span_cost_s = 0;
    {
        Tracer calib;
        const int n = 100000;
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            calib.end(calib.begin("calibrate", -1));
        span_cost_s =
            std::chrono::duration<double>(Clock::now() - t0).count() / n;
    }

    if (!opts.traceOut.empty())
        writeFileAtomic(opts.traceOut, tracer.chromeJson());

    std::string cfgJson;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        cfgJson += strFormat(
            "%s\"%s\":{\"observe_s\":%.9f,\"misses\":%" PRIu64
            ",\"in_figure\":%s}",
            c == 0 ? "" : ",", names[c].c_str(), observe_s[c], misses[c],
            inFigure[c] ? "true" : "false");
    }
    std::printf(
        "{\"figure\":\"%s\",\"setup_only\":%s,\"create_s\":%.9f,"
        "\"setup_s\":%.9f,\"run_span_s\":%.9f,\"encode_s\":%.9f,"
        "\"decode_s\":%.9f,\"rig_build_s\":%.9f,"
        "\"insts\":%" PRIu64 ",\"l1_accesses\":%" PRIu64
        ",\"l1_misses\":%" PRIu64 ",\"l2_misses\":%" PRIu64
        ",\"fsb_txns\":%" PRIu64 ",\"stream_bytes\":%" PRIu64
        ",\"verified\":%s,\"profiler_setup_s\":%.9f,"
        "\"profiler_run_s\":%.9f,\"spans\":%zu,\"span_cost_s\":%.12f,"
        "\"configs\":{%s},\"mpki\":{%s}}\n",
        opts.figure.c_str(), opts.setupOnly ? "true" : "false", create_s,
        setup_s, run_span_s, encode_s, decode_s, rig_build_s,
        insts, l1_acc, l1_miss, l2_miss, txns, stream_bytes,
        verified ? "true" : "false", prof.seconds("setup"),
        prof.seconds("run"), nSpans, span_cost_s, cfgJson.c_str(),
        mpkiJson.c_str());
    return 0;
}
