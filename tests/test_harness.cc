/**
 * @file
 * Tests for the bench harness: option parsing, output dirs, and a tiny
 * end-to-end sweep through the SweepRunner path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>

#include "base/fault.hh"
#include "base/units.hh"
#include "harness/report.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"

namespace cosim {
namespace {

BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char*> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto& a : args)
        argv.push_back(a.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                          "test");
}

TEST(BenchOptions, Defaults)
{
    BenchOptions o = parse({});
    EXPECT_DOUBLE_EQ(o.scale, 1.0);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.workloads.size(), 8u);
    EXPECT_EQ(o.outDir, "results");
    EXPECT_TRUE(o.strictVerify);
}

TEST(BenchOptions, ScaleAndQuick)
{
    EXPECT_DOUBLE_EQ(parse({"--scale=0.25"}).scale, 0.25);
    EXPECT_DOUBLE_EQ(parse({"--quick"}).scale, 0.05);
}

TEST(BenchOptions, WorkloadSubset)
{
    BenchOptions o = parse({"--workloads=FIMI, MDS"});
    ASSERT_EQ(o.workloads.size(), 2u);
    EXPECT_EQ(o.workloads[0], "FIMI");
    EXPECT_EQ(o.workloads[1], "MDS");
}

TEST(BenchOptions, SeedOutAndVerify)
{
    BenchOptions o =
        parse({"--seed=7", "--out=/tmp/x", "--no-verify"});
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.outDir, "/tmp/x");
    EXPECT_FALSE(o.strictVerify);
}

TEST(BenchOptions, RobustnessFlags)
{
    BenchOptions o = parse({"--keep-going", "--retry-cells=2",
                            "--cell-timeout=1.5", "--degrade-serial"});
    EXPECT_TRUE(o.keepGoing);
    EXPECT_EQ(o.retryCells, 2u);
    EXPECT_DOUBLE_EQ(o.cellTimeout, 1.5);
    EXPECT_TRUE(o.degradeSerial);

    BenchOptions d = parse({});
    EXPECT_FALSE(d.keepGoing);
    EXPECT_EQ(d.retryCells, 0u);
    EXPECT_DOUBLE_EQ(d.cellTimeout, 0.0);
    EXPECT_FALSE(d.degradeSerial);
    EXPECT_TRUE(d.faults.empty());
}

TEST(BenchOptions, FaultsFlagArmsThePlanWithTheRunSeed)
{
    BenchOptions o = parse({"--faults=cell.throw:nth=5", "--seed=9"});
    EXPECT_EQ(o.faults, "cell.throw:nth=5");
    EXPECT_TRUE(FaultInjector::enabled());
    FaultInjector& inj = FaultInjector::global();
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(inj.shouldFail("cell.throw")) << i;
    EXPECT_TRUE(inj.shouldFail("cell.throw"));
    // Disarm so the plan cannot leak into later tests.
    inj.disarm();
    EXPECT_FALSE(FaultInjector::enabled());
}

TEST(BenchOptions, EnsureOutputDirCreates)
{
    std::string dir = ::testing::TempDir() + "cosim_outdir_test";
    std::remove(dir.c_str());
    ensureOutputDir(dir);
    struct stat st{};
    ASSERT_EQ(stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    ensureOutputDir(dir); // idempotent
    rmdir(dir.c_str());
}

TEST(BenchOptions, EnsureOutputDirCreatesParents)
{
    const std::string root = ::testing::TempDir() + "cosim_outdir_nested";
    const std::string dir = root + "/a/b/c";
    ensureOutputDir(dir);
    struct stat st{};
    ASSERT_EQ(stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    for (const std::string& d :
         {dir, root + "/a/b", root + "/a", root})
        rmdir(d.c_str());
}

TEST(SweepRunner, TinyEndToEndFigure)
{
    // A miniature version of the Figure 4 path: 2 cores, the real LLC
    // sweep emulators, one small workload.
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    SweepRunner runner(opts);
    FigureData fig = runner.runCacheSizeFigure("FigTest", platform);

    ASSERT_EQ(fig.seriesNames().size(), 1u);
    const auto& series = fig.series("PLSA");
    ASSERT_EQ(series.size(), 7u);
    // MPKI must be non-increasing along the size sweep.
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LE(series[i], series[i - 1] + 1e-9);

    const auto& points = fig.points("PLSA");
    ASSERT_EQ(points.size(), 7u);
    EXPECT_EQ(points[0].llcSize, 4 * MiB);
    EXPECT_EQ(points[0].nCores, 2u);
    EXPECT_GT(points[0].insts, 0u);
}

TEST(SweepRunner, SampledCellRetryRebuildsTheSamplingRecord)
{
    // An injected throw fails the sampled cell's first attempt (hit 1
    // is the profile cell, hit 2 the sampled cell); --retry-cells=1
    // re-runs it on a fresh rig, and the retried attempt must rebuild
    // the full sampled-simulation record -- estimates, error-vs-full
    // baseline, coverage -- not just the figure row.
    std::string dir = ::testing::TempDir() + "cosim_sampled_retry";
    ensureOutputDir(dir);
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};
    opts.cells = CellMode::Sampled;
    opts.retryCells = 1;
    opts.samplePeriodUs = 50; // quick-style: enough windows to cluster
    opts.outDir = dir;
    opts.manifestFile = dir + "/run.json";

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    FigureData fig = [&] {
        ScopedFaultPlan plan("cell.throw:nth=2");
        SweepRunner runner(opts);
        return runner.runCacheSizeFigure("FigRetry", platform);
    }();

    // The figure row is real data, tagged with the attempt history.
    EXPECT_EQ(fig.status("PLSA"), "retried");
    ASSERT_EQ(fig.series("PLSA").size(), 7u);

    std::ifstream in(dir + "/run.json");
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, doc, &error)) << error;
    const obs::json::Value* workloads = doc.find("workloads");
    ASSERT_NE(workloads, nullptr);
    ASSERT_EQ(workloads->arr.size(), 1u);
    const obs::json::Value& w = workloads->arr[0];
    EXPECT_EQ(w.find("status")->str, "retried");
    EXPECT_EQ(w.find("attempts")->num, 2.0);
    const obs::json::Value* sampling = w.find("sampling");
    ASSERT_NE(sampling, nullptr)
        << "retry dropped the sampling record";
    EXPECT_GE(sampling->find("intervals")->num, 1.0);
    EXPECT_GT(sampling->find("coverage")->num, 0.0);
    // The profile pass succeeded (hit 1 did not fire), so the error
    // baseline must be present too.
    EXPECT_NE(sampling->find("error"), nullptr);
}

} // namespace
} // namespace cosim
