/**
 * @file
 * Tests for causal span tracing: parent/child context semantics,
 * trace-id inheritance across channel sends and proxy calls, the
 * Perfetto JSON export (span slices, their causal args, and flow
 * events), and the HYDRA_TRACING=OFF no-op branch. Everything here
 * runs in both build modes; the propagation tests are compiled only
 * when tracing is built in, and the OFF build instead verifies that
 * the whole API collapses to no-ops.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/call.hh"
#include "core/executive.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "core/proxy.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "json_checker.hh"
#include "net/network.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

#include "exec/sim_executor.hh"

namespace hydra::core {
namespace {

using hydra::testutil::JsonChecker;

/** Offcode that snapshots the active span context in its handlers. */
class ContextProbeOffcode : public Offcode
{
  public:
    ContextProbeOffcode() : Offcode("test.Probe")
    {
        registerMethod("Observe",
                       [this](const Bytes &args) -> Result<Bytes> {
                           callCtx = obs::activeContext();
                           return args;
                       });
    }

    void
    onData(const Payload &, ChannelHandle) override
    {
        dataCtx = obs::activeContext();
        ++dataCount;
    }

    obs::SpanContext callCtx;
    obs::SpanContext dataCtx;
    int dataCount = 0;
};

/** Host + NIC-device testbed with an enabled tracer per test. */
class SpanFixture : public ::testing::Test
{
  protected:
    SpanFixture()
        : machine_(sim_, hw::MachineConfig{}),
          net_(sim_, net::NetworkConfig{}),
          hostSite_(machine_)
    {
        nicNode_ = net_.addNode("nic");
        nic_ = std::make_unique<dev::ProgrammableNic>(
            sim_, machine_.bus(), net_, nicNode_);
        deviceSite_ = std::make_unique<DeviceSite>(machine_, *nic_);

        executive_ = std::make_unique<ChannelExecutive>(
            sim_, [this](const std::string &name) -> ExecutionSite * {
                if (name == hostSite_.name())
                    return &hostSite_;
                if (name == deviceSite_->name())
                    return deviceSite_.get();
                return nullptr;
            });
        executive_->registerProvider(
            std::make_unique<LocalChannelProvider>(sim_));
        executive_->registerProvider(
            std::make_unique<DmaRingChannelProvider>(sim_, false));
    }

    void
    SetUp() override
    {
        obs::Tracer::instance().enable(4096);
        obs::resetSpanIds();
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().disable();
        obs::Tracer::instance().clear();
        obs::resetSpanIds();
    }

    void
    place(Offcode &offcode, ExecutionSite &site)
    {
        OffcodeContext ctx;
        ctx.site = &site;
        ASSERT_TRUE(offcode.doInitialize(ctx).ok());
        ASSERT_TRUE(offcode.doStart().ok());
    }

    /** Channel host -> device with @p offcode connected at the far end. */
    Channel *
    deviceChannel(Offcode &offcode)
    {
        ChannelConfig config;
        config.targetDevice = deviceSite_->name();
        auto channel = executive_->createChannel(config, hostSite_);
        if (!channel.ok() ||
            !channel.value()->connectOffcode(offcode).ok())
            return nullptr;
        return channel.value();
    }

    exec::SimExecutor sim_;
    hw::Machine machine_;
    net::Network net_;
    net::NodeId nicNode_ = 0;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    HostSite hostSite_;
    std::unique_ptr<DeviceSite> deviceSite_;
    std::unique_ptr<ChannelExecutive> executive_;
};

} // namespace

#if HYDRA_OBS_TRACING

// ------------------------------------------------- context semantics

TEST_F(SpanFixture, RootSpanStartsItsOwnTrace)
{
    ASSERT_FALSE(obs::activeContext().valid());

    obs::Span span;
    span.open("test", "host", "root", "test", 100);
    ASSERT_TRUE(span.active());
    const obs::SpanContext ctx = span.context();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.traceId, ctx.spanId);
    EXPECT_EQ(ctx.parentId, 0u);
    // While the span is open its context is the active one.
    EXPECT_EQ(obs::activeContext().spanId, ctx.spanId);
    span.end(200);
}

TEST_F(SpanFixture, ChildSpanInheritsTraceAndLinksParent)
{
    obs::Span root;
    root.open("test", "host", "root", "test", 0);
    const obs::SpanContext rootCtx = root.context();

    {
        obs::Span child;
        child.open("test", "device", "child", "test", 10);
        const obs::SpanContext childCtx = child.context();
        EXPECT_EQ(childCtx.traceId, rootCtx.traceId);
        EXPECT_EQ(childCtx.parentId, rootCtx.spanId);
        EXPECT_NE(childCtx.spanId, rootCtx.spanId);
        child.end(20);
    }

    // The child restored the parent's context on destruction.
    EXPECT_EQ(obs::activeContext().spanId, rootCtx.spanId);
}

TEST_F(SpanFixture, ContextScopeRestoresOnExit)
{
    const obs::SpanContext installed{7, 8, 9};
    {
        obs::ContextScope scope(installed);
        EXPECT_EQ(obs::activeContext().traceId, 7u);
        EXPECT_EQ(obs::activeContext().spanId, 8u);
    }
    EXPECT_FALSE(obs::activeContext().valid());
}

TEST_F(SpanFixture, ResetSpanIdsIsDeterministic)
{
    auto firstIds = [] {
        obs::Span span;
        span.open("test", "host", "s", "test", 0);
        const obs::SpanContext ctx = span.context();
        span.end(1);
        return ctx;
    };
    obs::resetSpanIds();
    const obs::SpanContext a = firstIds();
    obs::resetSpanIds();
    const obs::SpanContext b = firstIds();
    EXPECT_EQ(a.traceId, b.traceId);
    EXPECT_EQ(a.spanId, b.spanId);
}

TEST_F(SpanFixture, EndWithoutOpenIsSafe)
{
    obs::Span span;
    span.end(123); // never opened — must be a no-op, not a crash
    EXPECT_FALSE(span.active());
    EXPECT_EQ(obs::Tracer::instance().eventsRecorded(), 0u);
}

// ---------------------------------------------- cross-site propagation

TEST_F(SpanFixture, ChannelSendInheritsTraceId)
{
    ContextProbeOffcode probe;
    place(probe, *deviceSite_);
    Channel *channel = deviceChannel(probe);
    ASSERT_NE(channel, nullptr);

    obs::SpanContext rootCtx;
    {
        obs::Span root;
        root.open("test", "host", "root", "test", sim_.now());
        rootCtx = root.context();
        ASSERT_TRUE(channel->write(encodeData(Bytes{1, 2, 3})).ok());
        root.end(sim_.now());
    }
    sim_.runToCompletion();

    // The device-side handler ran inside a span context that belongs
    // to the sender's trace: same trace-id, parented on the root.
    ASSERT_EQ(probe.dataCount, 1);
    ASSERT_TRUE(probe.dataCtx.valid());
    EXPECT_EQ(probe.dataCtx.traceId, rootCtx.traceId);
    EXPECT_EQ(probe.dataCtx.parentId, rootCtx.spanId);
}

TEST_F(SpanFixture, ProxyCallInheritsTraceId)
{
    ContextProbeOffcode probe;
    place(probe, *deviceSite_);
    Channel *channel = deviceChannel(probe);
    ASSERT_NE(channel, nullptr);

    Proxy proxy(*channel, probe.guid(), probe.guid());
    obs::SpanContext rootCtx;
    obs::SpanContext returnCtx;
    bool returned = false;
    {
        obs::Span root;
        root.open("test", "host", "root", "test", sim_.now());
        rootCtx = root.context();
        ASSERT_TRUE(proxy.invoke("Observe", Bytes{4, 5},
                                 [&](Result<Bytes> r) {
                                     ASSERT_TRUE(r.ok());
                                     returnCtx = obs::activeContext();
                                     returned = true;
                                 })
                        .ok());
        root.end(sim_.now());
    }
    sim_.runToCompletion();

    // The method body executed in the caller's trace...
    ASSERT_TRUE(probe.callCtx.valid());
    EXPECT_EQ(probe.callCtx.traceId, rootCtx.traceId);
    // ...and the Return callback was restored into it too, parented
    // on the root span that issued the call.
    ASSERT_TRUE(returned);
    ASSERT_TRUE(returnCtx.valid());
    EXPECT_EQ(returnCtx.traceId, rootCtx.traceId);
    EXPECT_EQ(returnCtx.parentId, rootCtx.spanId);
}

TEST_F(SpanFixture, DispatchEmitsNamedCallSpan)
{
    ContextProbeOffcode probe;
    place(probe, *deviceSite_);
    Channel *channel = deviceChannel(probe);
    ASSERT_NE(channel, nullptr);

    Proxy proxy(*channel, probe.guid(), probe.guid());
    ASSERT_TRUE(
        proxy.invoke("Observe", Bytes{}, [](Result<Bytes>) {}).ok());
    sim_.runToCompletion();

    std::ostringstream out;
    obs::Tracer::instance().writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"call.Observe\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"channel.send\""), std::string::npos) << json;
}

// -------------------------------------------------------- JSON export

TEST_F(SpanFixture, FlowEventJsonIsWellFormed)
{
    ContextProbeOffcode probe;
    place(probe, *deviceSite_);
    Channel *channel = deviceChannel(probe);
    ASSERT_NE(channel, nullptr);
    {
        obs::Span root;
        root.open("test", "host", "root", "test", sim_.now());
        ASSERT_TRUE(channel->write(encodeData(Bytes{9})).ok());
        root.end(sim_.now());
    }
    sim_.runToCompletion();

    std::ostringstream out;
    obs::Tracer::instance().writeJson(out);
    const std::string json = out.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    // Span slices carry the causal triple and the flow-event pairs
    // that make Perfetto draw the connecting arrows.
    EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
    EXPECT_NE(json.find("\"span_id\""), std::string::npos);
    EXPECT_NE(json.find("\"parent_id\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
}

TEST_F(SpanFixture, SpanListingJsonIsWellFormed)
{
    // A nested pair at fixed times: its slices must carry the whole
    // causal triple and the exact timing.
    {
        obs::Span root;
        root.open("test", "host", "root", "test", 100);
        obs::Span child;
        child.open("test", "device", "child", "test", 150);
        child.end(180);
        root.end(200);
    }

    std::ostringstream out;
    obs::Tracer::instance().writeJson(out);
    const std::string json = out.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;

    auto parsed = json::parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    const json::Value *events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    const json::Value *child = nullptr;
    for (const json::Value &event : events->array)
        if (event.find("name")->string == "child")
            child = &event;
    ASSERT_NE(child, nullptr) << json;
    const json::Value *childArgs = child->find("args");
    ASSERT_NE(childArgs, nullptr);
    const json::Value *root = nullptr;
    for (const json::Value &event : events->array) {
        const json::Value *args = event.find("args");
        if (args && args->find("span_id") &&
            args->find("span_id")->asU64() ==
                childArgs->find("parent_id")->asU64())
            root = &event;
    }
    ASSERT_NE(root, nullptr) << json;
    EXPECT_EQ(root->find("name")->string, "root");
    EXPECT_NE(root->find("args")->find("span_id")->asU64(), 0u);
    EXPECT_EQ(root->find("args")->find("trace_id")->asU64(),
              childArgs->find("trace_id")->asU64());
    EXPECT_DOUBLE_EQ(root->find("ts")->number, 0.100);
    EXPECT_DOUBLE_EQ(root->find("dur")->number, 0.100);
    EXPECT_DOUBLE_EQ(child->find("ts")->number, 0.150);
    EXPECT_DOUBLE_EQ(child->find("dur")->number, 0.030);
}

TEST_F(SpanFixture, DisabledTracerOpensNoSpans)
{
    obs::Tracer::instance().disable();
    ASSERT_FALSE(HYDRA_TRACE_ACTIVE());

    obs::Span span;
    span.open("test", "host", "ghost", "test", 0);
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.context().valid());
    EXPECT_FALSE(obs::activeContext().valid());
    span.end(10);
    EXPECT_EQ(obs::Tracer::instance().eventsRecorded(), 0u);
}

#else // !HYDRA_OBS_TRACING

// With tracing compiled out, the span API must still link and must
// never produce a context or an event — even with the tracer enabled.

TEST_F(SpanFixture, CompiledOutSpansAreNoOps)
{
    ASSERT_FALSE(HYDRA_TRACE_ACTIVE());

    obs::Span span;
    span.open("test", "host", "root", "test", 0);
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.context().valid());
    span.end(10);

    obs::setActiveContext(obs::SpanContext{1, 2, 3});
    EXPECT_FALSE(obs::activeContext().valid());
    obs::ContextScope scope(obs::SpanContext{4, 5, 6});
    EXPECT_FALSE(obs::activeContext().valid());
    obs::resetSpanIds();
}

TEST_F(SpanFixture, CompiledOutPropagationDeliversWithoutContext)
{
    ContextProbeOffcode probe;
    place(probe, *deviceSite_);
    Channel *channel = deviceChannel(probe);
    ASSERT_NE(channel, nullptr);

    obs::Span root;
    root.open("test", "host", "root", "test", sim_.now());
    ASSERT_TRUE(channel->write(encodeData(Bytes{1})).ok());
    root.end(sim_.now());
    sim_.runToCompletion();

    // Delivery still works; no causal identity is attached.
    ASSERT_EQ(probe.dataCount, 1);
    EXPECT_FALSE(probe.dataCtx.valid());
}

#endif // HYDRA_OBS_TRACING

} // namespace hydra::core
