/**
 * @file
 * Tests for the runtime side of HYDRA: hierarchical resources,
 * memory pinning, the Offcode depot, layout-graph construction,
 * loaders, the full Fig. 5 deployment pipeline, pseudo Offcodes,
 * and OOB invocation.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "dev/gpu.hh"
#include "dev/nic.hh"
#include "net/network.hh"

#include "exec/sim_executor.hh"

namespace hydra::core {
namespace {

// ------------------------------------------------------------ Resources

TEST(ResourceTest, CreateAndRelease)
{
    ResourceManager rm;
    bool released = false;
    auto id = rm.create(rm.root(), [&]() { released = true; });
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(rm.activeCount(), 1u);
    EXPECT_TRUE(rm.release(id.value()).ok());
    EXPECT_TRUE(released);
    EXPECT_EQ(rm.activeCount(), 0u);
}

TEST(ResourceTest, CascadingReleaseChildrenFirst)
{
    ResourceManager rm;
    std::vector<std::string> order;
    auto parent = rm.create(rm.root(), [&]() { order.push_back("parent"); });
    auto child =
        rm.create(parent.value(), [&]() { order.push_back("child"); });
    auto grandchild = rm.create(child.value(),
                                [&]() { order.push_back("grandchild"); });
    (void)grandchild;

    rm.release(parent.value());
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "grandchild");
    EXPECT_EQ(order[1], "child");
    EXPECT_EQ(order[2], "parent");
    EXPECT_EQ(rm.activeCount(), 0u);
}

TEST(ResourceTest, ReleaseDetachesFromParent)
{
    ResourceManager rm;
    int childReleases = 0;
    auto parent = rm.create(rm.root());
    auto child = rm.create(parent.value(), [&]() { ++childReleases; });
    rm.release(child.value());
    EXPECT_EQ(childReleases, 1);
    EXPECT_TRUE(rm.exists(parent.value()));
    // Releasing the parent afterwards does not run the child's action
    // a second time.
    rm.release(parent.value());
    EXPECT_EQ(childReleases, 1);
    EXPECT_EQ(rm.activeCount(), 0u);
}

TEST(ResourceTest, BadParentRejected)
{
    ResourceManager rm;
    EXPECT_FALSE(rm.create(99999).ok());
}

TEST(ResourceTest, CannotReleaseRootOrUnknown)
{
    ResourceManager rm;
    EXPECT_FALSE(rm.release(rm.root()).ok());
    EXPECT_FALSE(rm.release(424242).ok());
}

// ---------------------------------------------------------------- Depot

/** Trivial Offcode used in deployment tests. */
class NullOffcode : public Offcode
{
  public:
    explicit NullOffcode(std::string name) : Offcode(std::move(name)) {}
};

std::string
simpleOdf(const std::string &bindname, const std::string &imports = "")
{
    return "<offcode><package><bindname>" + bindname +
           "</bindname></package><sw-env>" + imports +
           "</sw-env><targets><host-fallback/></targets></offcode>";
}

std::string
importOf(const std::string &bindname, const std::string &constraint)
{
    return "<import><bindname>" + bindname + "</bindname><reference type=\"" +
           constraint + "\"/></import>";
}

TEST(DepotTest, RegisterAndFind)
{
    OffcodeDepot depot;
    ASSERT_TRUE(depot
                    .registerOffcode(simpleOdf("a.b"),
                                     []() {
                                         return std::make_unique<
                                             NullOffcode>("a.b");
                                     })
                    .ok());
    EXPECT_EQ(depot.size(), 1u);
    EXPECT_TRUE(depot.findByBindname("a.b").ok());
    EXPECT_EQ(depot.findByBindname("a.b").value()->manifest.guid,
              Guid::fromName("a.b"));
    EXPECT_FALSE(depot.findByBindname("missing").ok());
}

TEST(DepotTest, InvalidManifestRejected)
{
    OffcodeDepot depot;
    Status bad = depot.registerOffcode(
        "<offcode><package><bindname></bindname></package></offcode>",
        []() { return std::make_unique<NullOffcode>("x"); });
    EXPECT_FALSE(bad);
}

TEST(DepotTest, MissingFactoryRejected)
{
    OffcodeDepot depot;
    DepotEntry entry;
    auto manifest = odf::OdfDocument::parse(simpleOdf("x"));
    entry.manifest = manifest.value();
    EXPECT_FALSE(depot.registerOffcode(std::move(entry)).ok());
}

// ---------------------------------------------------------- LayoutGraph

TEST(LayoutGraphTest, FollowsImportsTransitively)
{
    OffcodeDepot depot;
    auto factory = [](const std::string &name) {
        return [name]() { return std::make_unique<NullOffcode>(name); };
    };
    depot.registerOffcode(simpleOdf("root", importOf("mid", "Gang")),
                          factory("root"));
    depot.registerOffcode(simpleOdf("mid", importOf("leaf", "Pull")),
                          factory("mid"));
    depot.registerOffcode(simpleOdf("leaf"), factory("leaf"));

    auto graph = LayoutGraph::build(
        depot, *depot.findByBindname("root").value());
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.value().nodes().size(), 3u);
    ASSERT_EQ(graph.value().edges().size(), 2u);
    EXPECT_EQ(graph.value().edges()[0].kind, odf::ConstraintType::Gang);
    EXPECT_EQ(graph.value().edges()[1].kind, odf::ConstraintType::Pull);
    EXPECT_EQ(graph.value().nodes()[2]->manifest.bindname, "leaf");
}

TEST(LayoutGraphTest, CyclesTerminate)
{
    OffcodeDepot depot;
    auto factory = [](const std::string &name) {
        return [name]() { return std::make_unique<NullOffcode>(name); };
    };
    depot.registerOffcode(simpleOdf("a", importOf("b", "Link")),
                          factory("a"));
    depot.registerOffcode(simpleOdf("b", importOf("a", "Link")),
                          factory("b"));
    auto graph =
        LayoutGraph::build(depot, *depot.findByBindname("a").value());
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.value().nodes().size(), 2u);
    EXPECT_EQ(graph.value().edges().size(), 2u);
}

TEST(LayoutGraphTest, UnresolvedImportFails)
{
    OffcodeDepot depot;
    depot.registerOffcode(
        simpleOdf("a", importOf("ghost", "Pull")),
        []() { return std::make_unique<NullOffcode>("a"); });
    auto graph =
        LayoutGraph::build(depot, *depot.findByBindname("a").value());
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.error().code, ErrorCode::NotFound);
}

// -------------------------------------------------------------- Runtime

class RuntimeFixture : public ::testing::Test
{
  protected:
    RuntimeFixture()
        : machine_(sim_, hw::MachineConfig{}),
          net_(sim_, net::NetworkConfig{})
    {
        nicNode_ = net_.addNode("nic");
        nic_ = std::make_unique<dev::ProgrammableNic>(
            sim_, machine_.bus(), net_, nicNode_);
        gpu_ = std::make_unique<dev::Gpu>(sim_, machine_.bus());
        runtime_ = std::make_unique<Runtime>(machine_);
        EXPECT_TRUE(runtime_->attachDevice(*nic_).ok());
        EXPECT_TRUE(runtime_->attachDevice(*gpu_).ok());
    }

    /** ODF targeting the NIC class, with host fallback. */
    std::string
    nicOdf(const std::string &bindname, const std::string &imports = "")
    {
        return "<offcode><package><bindname>" + bindname +
               "</bindname></package><sw-env>" + imports +
               "</sw-env><targets>"
               "<device-class id=\"0x0001\"/>"
               "<host-fallback/></targets></offcode>";
    }

    exec::SimExecutor sim_;
    hw::Machine machine_;
    net::Network net_;
    net::NodeId nicNode_ = 0;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    std::unique_ptr<dev::Gpu> gpu_;
    std::unique_ptr<Runtime> runtime_;
};

TEST_F(RuntimeFixture, PseudoOffcodesPreDeployed)
{
    for (const char *name :
         {"hydra.Runtime", "hydra.Heap", "hydra.ChannelExecutive"}) {
        auto handle = runtime_->getOffcode(name);
        ASSERT_TRUE(handle.ok()) << name;
        EXPECT_TRUE(handle.value().site->isHost());
        EXPECT_EQ(handle.value().offcode->state(), OffcodeState::Started);
    }
}

TEST_F(RuntimeFixture, DuplicateDeviceRejected)
{
    Status again = runtime_->attachDevice(*nic_);
    EXPECT_FALSE(again);
    EXPECT_EQ(again.code(), ErrorCode::AlreadyExists);
}

TEST_F(RuntimeFixture, SiteLookupByName)
{
    EXPECT_NE(runtime_->siteByName("host"), nullptr);
    EXPECT_NE(runtime_->siteByName("nic"), nullptr);
    EXPECT_NE(runtime_->siteByName("gpu"), nullptr);
    EXPECT_EQ(runtime_->siteByName("flux-capacitor"), nullptr);
}

TEST_F(RuntimeFixture, DeploysToMatchingDevice)
{
    runtime_->depot().registerOffcode(nicOdf("test.NetThing"), []() {
        return std::make_unique<NullOffcode>("test.NetThing");
    });

    bool done = false;
    runtime_->createOffcode("test.NetThing",
                            [&](Result<OffcodeHandle> handle) {
                                ASSERT_TRUE(handle.ok())
                                    << handle.error().describe();
                                EXPECT_FALSE(handle.value().site->isHost());
                                EXPECT_EQ(handle.value().deviceAddr(),
                                          "nic");
                                done = true;
                            });
    sim_.runToCompletion();
    EXPECT_TRUE(done);
    EXPECT_EQ(runtime_->stats().offloadedCount, 1u);
    EXPECT_EQ(runtime_->stats().deploymentsCompleted, 1u);

    // Device memory was consumed by the loader.
    EXPECT_GT(nic_->localMemoryUsed(), 0u);
}

TEST_F(RuntimeFixture, DeploymentTakesSimulatedTime)
{
    runtime_->depot().registerOffcode(nicOdf("test.Slow"), []() {
        return std::make_unique<NullOffcode>("test.Slow");
    });
    bool done = false;
    runtime_->createOffcode("test.Slow",
                            [&](Result<OffcodeHandle>) { done = true; });
    EXPECT_FALSE(done); // asynchronous: allocate RTT + link + DMA
    sim_.runToCompletion();
    EXPECT_TRUE(done);
    EXPECT_GT(sim_.now(), 0u);
}

TEST_F(RuntimeFixture, ImportsDeployedAndStartedBeforeRoot)
{
    /** Offcode recording the start order. */
    class OrderedOffcode : public Offcode
    {
      public:
        OrderedOffcode(std::string name, std::vector<std::string> *order)
            : Offcode(std::move(name)), order_(order)
        {
        }

      protected:
        Status
        start() override
        {
            order_->push_back(bindname());
            return Status::success();
        }

      private:
        std::vector<std::string> *order_;
    };

    auto order = std::make_shared<std::vector<std::string>>();
    runtime_->depot().registerOffcode(
        nicOdf("test.Root", importOf("test.Dep", "Gang")),
        [order]() {
            return std::make_unique<OrderedOffcode>("test.Root",
                                                    order.get());
        });
    runtime_->depot().registerOffcode(
        nicOdf("test.Dep"), [order]() {
            return std::make_unique<OrderedOffcode>("test.Dep",
                                                    order.get());
        });

    bool done = false;
    runtime_->createOffcode("test.Root",
                            [&](Result<OffcodeHandle> handle) {
                                ASSERT_TRUE(handle.ok());
                                done = true;
                            });
    sim_.runToCompletion();
    ASSERT_TRUE(done);
    ASSERT_EQ(order->size(), 2u);
    EXPECT_EQ((*order)[0], "test.Dep");
    EXPECT_EQ((*order)[1], "test.Root");
}

TEST_F(RuntimeFixture, AlreadyDeployedOffcodeReused)
{
    runtime_->depot().registerOffcode(nicOdf("test.Shared"), []() {
        return std::make_unique<NullOffcode>("test.Shared");
    });
    runtime_->depot().registerOffcode(
        nicOdf("test.User", importOf("test.Shared", "Link")), []() {
            return std::make_unique<NullOffcode>("test.User");
        });

    runtime_->createOffcode("test.Shared", [](Result<OffcodeHandle>) {});
    sim_.runToCompletion();
    const auto deployedBefore = runtime_->stats().offcodesDeployed;

    bool done = false;
    runtime_->createOffcode("test.User",
                            [&](Result<OffcodeHandle>) { done = true; });
    sim_.runToCompletion();
    ASSERT_TRUE(done);
    // Only test.User is new; test.Shared was reused.
    EXPECT_EQ(runtime_->stats().offcodesDeployed, deployedBefore + 1);
}

TEST_F(RuntimeFixture, UnknownReferenceFailsDeployment)
{
    bool failed = false;
    runtime_->createOffcode("no.such.thing",
                            [&](Result<OffcodeHandle> handle) {
                                failed = !handle.ok();
                            });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
    EXPECT_EQ(runtime_->stats().deploymentsFailed, 1u);
}

TEST_F(RuntimeFixture, DeviceMemoryExhaustionFailsDeployment)
{
    // An image bigger than the NIC's local memory, no host fallback.
    const std::string odf =
        "<offcode><package><bindname>test.Huge</bindname></package>"
        "<targets><device-class id=\"0x0001\"/></targets></offcode>";
    runtime_->depot().registerOffcode(
        odf,
        []() { return std::make_unique<NullOffcode>("test.Huge"); },
        /*image_bytes=*/64 * 1024 * 1024);

    bool failed = false;
    runtime_->createOffcode("test.Huge",
                            [&](Result<OffcodeHandle> handle) {
                                failed = !handle.ok();
                            });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
}

TEST_F(RuntimeFixture, InvokeAsyncThroughOobChannel)
{
    auto handle = runtime_->getOffcode("hydra.Runtime");
    ASSERT_TRUE(handle.ok());

    Bytes args;
    ByteWriter writer(args);
    writer.writeString("hydra.Heap");

    Bytes reply;
    ASSERT_TRUE(runtime_
                    ->invokeAsync("hydra.Runtime", "GetOffcode", args,
                                  [&](Result<Bytes> r) {
                                      ASSERT_TRUE(r.ok())
                                          << r.error().describe();
                                      reply = r.value();
                                  })
                    .ok());
    sim_.runToCompletion();

    ByteReader reader(reply);
    EXPECT_EQ(reader.readU64().value(),
              Guid::fromName("hydra.Heap").value());
}

TEST_F(RuntimeFixture, HeapPseudoOffcodeAllocates)
{
    Bytes args;
    ByteWriter writer(args);
    writer.writeU64(4096);

    bool got = false;
    runtime_->invokeAsync("hydra.Heap", "Allocate", args,
                          [&](Result<Bytes> r) {
                              ASSERT_TRUE(r.ok());
                              ByteReader reader(r.value());
                              EXPECT_GT(reader.readU64().value(), 0u);
                              got = true;
                          });
    sim_.runToCompletion();
    EXPECT_TRUE(got);
}

TEST_F(RuntimeFixture, GreedyResolverAlsoDeploys)
{
    core::RuntimeConfig config;
    config.resolver.useGreedy = true;
    Runtime greedy(machine_, config);

    // Fresh devices (a device can only attach to one runtime's
    // bookkeeping in this test).
    dev::Gpu gpu2(sim_, machine_.bus(),
                  [] {
                      auto c = dev::Gpu::gpuDefaultConfig();
                      c.name = "gpu2";
                      return c;
                  }());
    ASSERT_TRUE(greedy.attachDevice(gpu2).ok());

    const std::string odf =
        "<offcode><package><bindname>test.G</bindname></package>"
        "<targets><device-class id=\"0x0003\"/>"
        "<host-fallback/></targets></offcode>";
    greedy.depot().registerOffcode(odf, []() {
        return std::make_unique<NullOffcode>("test.G");
    });

    bool done = false;
    greedy.createOffcode("test.G", [&](Result<OffcodeHandle> handle) {
        ASSERT_TRUE(handle.ok());
        EXPECT_EQ(handle.value().deviceAddr(), "gpu2");
        done = true;
    });
    sim_.runToCompletion();
    EXPECT_TRUE(done);
}

} // namespace
} // namespace hydra::core
