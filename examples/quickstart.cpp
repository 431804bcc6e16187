/**
 * @file
 * Quickstart: assemble a co-simulation (8-core virtual platform + one
 * Dragonhead cache emulator), run the FIMI frequent-itemset workload to
 * completion, and read the emulator's results -- the minimal end-to-end
 * use of the library.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

int
main()
{
    // 1. Describe the platform: the paper's small-scale CMP (8 cores,
    //    private 32 KB L1s, DEX time-slice scheduling).
    CoSimParams params;
    params.platform = presets::scmp();

    // 2. Attach a Dragonhead emulating a 16 MB shared LLC with 64 B
    //    lines (the board supported 1 MB - 256 MB, 64 B - 4 KB, LRU).
    params.emulators.push_back(presets::llcConfig(16 * MiB, 64));

    CoSimulation cosim(params);

    // 3. Pick a workload. 0.2 x the default input keeps this example
    //    snappy; pass 1.0 for the paper-shaped run.
    auto workload = createWorkload("FIMI", 0.2);

    WorkloadConfig cfg;
    cfg.nThreads = 8;
    cfg.seed = 42;

    // 4. Run to completion. The workload really mines itemsets; every
    //    one of its memory accesses flowed through the private L1s onto
    //    the bus, where the emulator snooped it.
    RunResult result = cosim.run(*workload, cfg);

    std::printf("workload        : %s (%s)\n", result.workload.c_str(),
                result.verified ? "verified" : "FAILED VERIFY");
    std::printf("instructions    : %.1f M retired on %u cores\n",
                static_cast<double>(result.totalInsts) / 1e6,
                result.nThreads);
    std::printf("simulation speed: %.1f MIPS (the paper's rig: 30-50)\n",
                result.simMips());
    std::printf("footprint       : %.1f MB simulated\n",
                static_cast<double>(result.footprintBytes) / (1 << 20));

    const LlcView& dh = cosim.emulator(0);
    LlcResults llc = dh.results();
    std::printf("\nDragonhead (16MB LLC, 64B lines, LRU, 4 CC slices)\n");
    std::printf("  LLC accesses  : %llu\n",
                static_cast<unsigned long long>(llc.accesses));
    std::printf("  LLC misses    : %llu (%.2f%% miss rate)\n",
                static_cast<unsigned long long>(llc.misses),
                100.0 * llc.missRate());
    std::printf("  MPKI          : %.3f misses / 1000 instructions\n",
                llc.mpki());
    std::printf("  500us samples : %zu collected\n", dh.samples().size());

    std::printf("\nPer-core LLC traffic:\n");
    for (CoreId c = 0; c < 8; ++c) {
        CoreCounters cc = dh.coreResults(c);
        std::printf("  core %u: %8llu accesses, %8llu misses\n", c,
                    static_cast<unsigned long long>(cc.accesses),
                    static_cast<unsigned long long>(cc.misses));
    }
    return result.verified ? 0 : 1;
}
