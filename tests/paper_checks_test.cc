/**
 * @file
 * The paper's shape checks (bench/paper_repro.hh) as a gate: real
 * 30-second runs pass every check, fabricated runs with the paper's
 * shape pass too, and each check fails, alone and by name, when one
 * fabricated result breaks the shape it guards. The paper_repro driver
 * takes its exit code from the same list.
 */

#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/paper_repro.hh"

namespace {

using namespace hydra;
using namespace hydra::bench;

SampleSet
samples(std::initializer_list<double> values)
{
    SampleSet set;
    for (double v : values)
        set.add(v);
    return set;
}

/** Fabricated runs with the paper's shape and round numbers. */
PaperRuns
shapedRuns()
{
    PaperRuns r;
    r.simple.interarrivalMs = samples({6.0, 7.0, 8.0});
    r.sendfile.interarrivalMs = samples({5.0, 6.0, 7.0});
    r.offloaded.interarrivalMs = samples({4.99, 5.0, 5.01});
    r.onloaded.interarrivalMs = samples({5.0, 5.0, 5.01});
    r.quietSimple.interarrivalMs = samples({7.0, 7.0, 7.001});

    r.idle.serverCpuPct = samples({2.86});
    r.simple.serverCpuPct = samples({7.5});
    r.sendfile.serverCpuPct = samples({6.0});
    r.offloaded.serverCpuPct = samples({2.86});

    r.idle.clientCpuPct = samples({2.86});
    r.userSpaceClient.clientCpuPct = samples({7.3});
    r.offloadedClient.clientCpuPct = samples({2.86});
    r.userSpaceClient.framesDisplayed = 100;
    r.offloadedClient.framesDisplayed = 100;
    r.idle.clientL2MissRate = samples({0.020});
    r.userSpaceClient.clientL2MissRate = samples({0.022});

    r.idle.serverL2MissRate = samples({0.020});
    r.simple.serverL2MissRate = samples({0.0214});
    r.sendfile.serverL2MissRate = samples({0.020});
    r.offloaded.serverL2MissRate = samples({0.020});

    r.onloaded.serverBusCrossings = 1000;
    r.offloaded.serverBusCrossings = 0;
    return r;
}

std::vector<std::string>
failedNames(const std::vector<ShapeCheck> &checks)
{
    std::vector<std::string> names;
    for (const ShapeCheck &c : checks)
        if (!c.pass())
            names.push_back(c.name);
    return names;
}

TEST(PaperChecks, RealThirtySecondRunsPassEveryCheck)
{
    const std::vector<ShapeCheck> checks =
        paperChecks(runPaperScenarios(sim::seconds(30)));
    for (const ShapeCheck &c : checks)
        EXPECT_TRUE(c.pass()) << c.name << ": " << c.measured << ' '
                            << c.relation << ' ' << c.bound;
    EXPECT_EQ(shapeExitCode(checks), 0);
}

TEST(PaperChecks, EachBrokenShapeFailsItsNamedCheckAlone)
{
    const std::vector<ShapeCheck> shaped = paperChecks(shapedRuns());
    EXPECT_TRUE(failedNames(shaped).empty());
    EXPECT_EQ(shapeExitCode(shaped), 0);

    struct Break
    {
        const char *check;
        std::function<void(PaperRuns &)> apply;
    };
    const std::vector<Break> breaks = {
        {"table2.median_simple_over_sendfile_ms",
         [](PaperRuns &r) { r.sendfile.interarrivalMs = samples({7, 8, 9}); }},
        {"table2.median_sendfile_over_offloaded_ms",
         [](PaperRuns &r) {
             r.sendfile.interarrivalMs = samples({3.5, 4.5, 5.5});
         }},
        {"table2.stddev_simple_over_offloaded_x",
         [](PaperRuns &r) {
             r.simple.interarrivalMs = samples({6.95, 7.0, 7.05});
         }},
        {"table2.stddev_sendfile_over_offloaded_x",
         [](PaperRuns &r) {
             r.sendfile.interarrivalMs = samples({5.95, 6.0, 6.05});
         }},
        {"fig9.quiet_median_over_offloaded_ms",
         [](PaperRuns &r) {
             r.quietSimple.interarrivalMs = samples({5.5, 5.5, 5.501});
         }},
        {"fig9.stddev_simple_over_quiet_x",
         [](PaperRuns &r) {
             r.quietSimple.interarrivalMs = samples({6.0, 7.0, 8.0});
         }},
        {"table3.offloaded_cpu_off_idle_pct",
         [](PaperRuns &r) { r.offloaded.serverCpuPct = samples({2.96}); }},
        {"table3.cpu_simple_over_sendfile_pct",
         [](PaperRuns &r) { r.simple.serverCpuPct = samples({5.5}); }},
        {"table3.cpu_sendfile_over_idle_pct",
         [](PaperRuns &r) { r.sendfile.serverCpuPct = samples({3.5}); }},
        {"table4.offloaded_client_cpu_off_idle_pct",
         [](PaperRuns &r) {
             r.offloadedClient.clientCpuPct = samples({3.0});
         }},
        {"table4.user_space_client_frames",
         [](PaperRuns &r) { r.userSpaceClient.framesDisplayed = 0; }},
        {"table4.offloaded_client_frames",
         [](PaperRuns &r) { r.offloadedClient.framesDisplayed = 0; }},
        {"table4.user_space_client_l2_over_idle_x",
         [](PaperRuns &r) {
             r.userSpaceClient.clientL2MissRate = samples({0.020});
         }},
        {"fig10.l2_simple_over_sendfile_x",
         [](PaperRuns &r) { r.simple.serverL2MissRate = samples({0.0202}); }},
        {"fig10.l2_offloaded_off_idle_x",
         [](PaperRuns &r) {
             r.offloaded.serverL2MissRate = samples({0.021});
         }},
        {"onload.stddev_onloaded_over_offloaded_x",
         [](PaperRuns &r) {
             r.onloaded.interarrivalMs = samples({4.9, 5.0, 5.1});
         }},
        {"onload.onloaded_bus_crossings",
         [](PaperRuns &r) { r.onloaded.serverBusCrossings = 0; }},
        {"onload.offloaded_bus_crossings",
         [](PaperRuns &r) { r.offloaded.serverBusCrossings = 1; }},
    };

    std::set<std::string> broken;
    for (const Break &b : breaks) {
        SCOPED_TRACE(b.check);
        PaperRuns runs = shapedRuns();
        b.apply(runs);
        const std::vector<ShapeCheck> checks = paperChecks(runs);
        EXPECT_EQ(failedNames(checks), std::vector<std::string>{b.check});
        EXPECT_EQ(shapeExitCode(checks), 1);
        broken.insert(b.check);
    }

    // Every check the driver runs can be broken by some result.
    std::set<std::string> all;
    for (const ShapeCheck &c : shaped)
        all.insert(c.name);
    EXPECT_EQ(broken, all);
}

} // namespace
