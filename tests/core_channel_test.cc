/**
 * @file
 * Tests for Call marshaling, channels (local + DMA ring), the
 * Channel Executive's provider selection, and the invocation proxy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos/chaos.hh"
#include "common/payload.hh"
#include "core/call.hh"
#include "obs/metrics.hh"
#include "core/executive.hh"
#include "core/offcode.hh"
#include "core/proxy.hh"
#include "core/providers.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "net/network.hh"

#include "exec/sim_executor.hh"

namespace hydra::core {
namespace {

// ---------------------------------------------------------------- Call

TEST(CallTest, SerializeRoundTrip)
{
    Call call;
    call.targetOffcode = Guid(111);
    call.interfaceGuid = Guid(222);
    call.method = "Decode";
    call.arguments = Bytes{1, 2, 3};
    call.callId = 77;
    call.expectsReturn = false;

    auto decoded = Call::deserialize(call.serialize());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().targetOffcode, Guid(111));
    EXPECT_EQ(decoded.value().interfaceGuid, Guid(222));
    EXPECT_EQ(decoded.value().method, "Decode");
    EXPECT_EQ(decoded.value().arguments, (Bytes{1, 2, 3}));
    EXPECT_EQ(decoded.value().callId, 77u);
    EXPECT_FALSE(decoded.value().expectsReturn);
}

TEST(CallTest, ReturnRoundTrip)
{
    CallReturn ret;
    ret.callId = 9;
    ret.ok = false;
    ret.error = "boom";
    auto decoded = CallReturn::deserialize(ret.serialize());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().callId, 9u);
    EXPECT_FALSE(decoded.value().ok);
    EXPECT_EQ(decoded.value().error, "boom");
}

TEST(CallTest, KindMismatchRejected)
{
    Call call;
    call.method = "m";
    EXPECT_FALSE(CallReturn::deserialize(call.serialize()).ok());
    EXPECT_FALSE(Call::deserialize(encodeData(Bytes{1})).ok());
}

TEST(CallTest, PeekKindAndDataWrapper)
{
    const Payload wrapped = encodeData(Bytes{5, 6});
    EXPECT_EQ(peekKind(wrapped).value(), MessageKind::Data);
    EXPECT_EQ(decodeData(wrapped).value(), (Bytes{5, 6}));
    EXPECT_FALSE(peekKind(Bytes{}).ok());
    EXPECT_FALSE(peekKind(Bytes{99}).ok());
    // The decoded body is a zero-copy slice of the wrapped buffer.
    auto body = decodeData(wrapped).value();
    EXPECT_EQ(body.data(), wrapped.data() + 5);
}

// ------------------------------------------------------------ Fixtures

/** Echo Offcode: returns its arguments reversed. */
class EchoOffcode : public Offcode
{
  public:
    EchoOffcode() : Offcode("test.Echo")
    {
        registerMethod("Reverse", [](const Bytes &args) -> Result<Bytes> {
            Bytes out(args.rbegin(), args.rend());
            return out;
        });
        registerMethod("Fail", [](const Bytes &) -> Result<Bytes> {
            return Error(ErrorCode::Internal, "deliberate");
        });
    }

    void
    onData(const Payload &payload, ChannelHandle from) override
    {
        dataReceived.push_back(payload);
        lastFrom = from;
    }

    std::vector<Payload> dataReceived;
    ChannelHandle lastFrom;
};

class ChannelFixture : public ::testing::Test
{
  protected:
    ChannelFixture()
        : machine_(sim_, hw::MachineConfig{}),
          net_(sim_, net::NetworkConfig{}),
          hostSite_(machine_)
    {
        nicNode_ = net_.addNode("nic");
        nic_ = std::make_unique<dev::ProgrammableNic>(
            sim_, machine_.bus(), net_, nicNode_);
        deviceSite_ =
            std::make_unique<DeviceSite>(machine_, *nic_);

        executive_ = std::make_unique<ChannelExecutive>(
            sim_, [this](const std::string &name) -> ExecutionSite * {
                if (name == hostSite_.name())
                    return &hostSite_;
                if (name == deviceSite_->name())
                    return deviceSite_.get();
                auto it = extraSites_.find(name);
                return it != extraSites_.end() ? it->second : nullptr;
            });
        executive_->registerProvider(
            std::make_unique<LocalChannelProvider>(sim_));
        executive_->registerProvider(
            std::make_unique<DmaRingChannelProvider>(sim_, false));
    }

    /** Initialize an offcode at a site (minimal context). */
    void
    place(Offcode &offcode, ExecutionSite &site)
    {
        OffcodeContext ctx;
        ctx.site = &site;
        ASSERT_TRUE(offcode.doInitialize(ctx).ok());
        ASSERT_TRUE(offcode.doStart().ok());
    }

    exec::SimExecutor sim_;
    hw::Machine machine_;
    net::Network net_;
    net::NodeId nicNode_ = 0;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    HostSite hostSite_;
    std::unique_ptr<DeviceSite> deviceSite_;
    std::unique_ptr<ChannelExecutive> executive_;
    std::map<std::string, ExecutionSite *> extraSites_;
};

// ---------------------------------------------------------- Executive

TEST_F(ChannelFixture, PicksLocalProviderForSameSite)
{
    ChannelConfig config;
    config.targetDevice = hostSite_.name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    EXPECT_EQ(executive_->activeChannels(), 1u);
}

TEST_F(ChannelFixture, UnknownTargetFails)
{
    ChannelConfig config;
    config.targetDevice = "no-such-device";
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_FALSE(channel.ok());
    EXPECT_EQ(channel.error().code, ErrorCode::NotFound);
}

TEST_F(ChannelFixture, DestroyRemovesChannel)
{
    ChannelConfig config;
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    EXPECT_TRUE(executive_->destroyChannel(channel.value()).ok());
    EXPECT_EQ(executive_->activeChannels(), 0u);
    EXPECT_FALSE(executive_->destroyChannel(channel.value()).ok());
}

TEST_F(ChannelFixture, FindChannelOfIdZeroIsNull)
{
    ChannelConfig config;
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    ASSERT_NE(channel.value()->id(), kInvalidChannel);
    EXPECT_EQ(executive_->findChannel(kInvalidChannel), nullptr);
    EXPECT_EQ(executive_->findChannel(channel.value()->id()),
              channel.value());
}

TEST_F(ChannelFixture, DestroyByIdZeroIsNotFound)
{
    ChannelConfig config;
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    const Status destroyed = executive_->destroyChannelById(kInvalidChannel);
    ASSERT_FALSE(destroyed.ok());
    EXPECT_EQ(destroyed.error().code, ErrorCode::NotFound);
    EXPECT_EQ(executive_->activeChannels(), 1u);
    EXPECT_FALSE(channel.value()->closed());
}

/** Records the id of every channel it is connected to, in order. */
class ConnectRecorder : public Offcode
{
  public:
    ConnectRecorder() : Offcode("test.Recorder") {}

    void
    onChannelConnected(ChannelHandle channel) override
    {
        ids.push_back(channel.channel->id());
    }

    std::vector<ChannelId> ids;
};

TEST_F(ChannelFixture, RebindVisitsChannelsInIdOrder)
{
    EchoOffcode failed;
    place(failed, *deviceSite_);
    ConnectRecorder successor;
    place(successor, *deviceSite_);

    // Burn ids first: ids past the registry's capacity wrap to its
    // low slots, so slot order is not id order. Then enough channels
    // to grow the registry several times, and destroys in the middle
    // so entries shift between slots.
    for (int i = 0; i < 200; ++i) {
        auto burned = executive_->createChannel(ChannelConfig{}, hostSite_);
        ASSERT_TRUE(burned.ok());
        ASSERT_TRUE(executive_->destroyChannel(burned.value()).ok());
    }
    std::vector<ChannelId> live;
    for (int i = 0; i < 100; ++i) {
        ChannelConfig config;
        config.targetDevice = deviceSite_->name();
        auto channel = executive_->createChannel(config, hostSite_);
        ASSERT_TRUE(channel.ok());
        ASSERT_TRUE(channel.value()->connectOffcode(failed).ok());
        live.push_back(channel.value()->id());
    }
    for (std::size_t i = 10; i < live.size(); i += 7)
        ASSERT_TRUE(executive_->destroyChannelById(live[i]).ok());
    std::erase_if(live, [&](ChannelId id) {
        return executive_->findChannel(id) == nullptr;
    });

    EXPECT_EQ(executive_->detachOffcode(failed), live.size());
    EXPECT_EQ(executive_->rebindOffcode(failed, successor), live.size());
    EXPECT_EQ(successor.ids, live) << "rebind must visit ascending ids";
}

TEST_F(ChannelFixture, ProviderNamesListed)
{
    const auto names = executive_->providerNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "local");
    EXPECT_EQ(names[1], "dma-ring");
}

// ------------------------------------------------------------ Channels

TEST_F(ChannelFixture, CrossSiteDataDelivery)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(channel.value()->connectOffcode(echo).ok());

    const auto busBefore = machine_.bus().stats().transactions;
    ASSERT_TRUE(channel.value()->write(encodeData(Bytes{1, 2, 3})).ok());
    sim_.runToCompletion();

    ASSERT_EQ(echo.dataReceived.size(), 1u);
    EXPECT_EQ(echo.dataReceived[0], (Bytes{1, 2, 3}));
    EXPECT_GT(machine_.bus().stats().transactions, busBefore);
}

TEST_F(ChannelFixture, CallDispatchAndReturn)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(channel.value()->connectOffcode(echo).ok());

    Proxy proxy(*channel.value(), echo.guid(), echo.guid());
    Bytes result;
    ASSERT_TRUE(proxy.invoke("Reverse", Bytes{1, 2, 3},
                             [&](Result<Bytes> r) {
                                 ASSERT_TRUE(r.ok());
                                 result = r.value();
                             })
                    .ok());
    sim_.runToCompletion();
    EXPECT_EQ(result, (Bytes{3, 2, 1}));
    EXPECT_EQ(proxy.pendingCalls(), 0u);
}

TEST_F(ChannelFixture, FailedCallPropagatesError)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.value()->connectOffcode(echo).ok());

    Proxy proxy(*channel.value(), echo.guid(), echo.guid());
    bool failed = false;
    std::string message;
    proxy.invoke("Fail", Bytes{}, [&](Result<Bytes> r) {
        failed = !r.ok();
        if (!r.ok())
            message = r.error().message;
    });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
    EXPECT_NE(message.find("deliberate"), std::string::npos);
}

TEST_F(ChannelFixture, DeclaredInterfacesAreEnforced)
{
    EchoOffcode echo;
    echo.declareInterface(Guid::fromName("IEcho"));
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    // Wrong interface GUID: rejected with InterfaceMismatch.
    Proxy wrong(*channel.value(), echo.guid(),
                Guid::fromName("ISomethingElse"));
    bool failed = false;
    std::string message;
    wrong.invoke("Reverse", Bytes{1}, [&](Result<Bytes> r) {
        failed = !r.ok();
        if (!r.ok())
            message = r.error().message;
    });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
    EXPECT_NE(message.find("InterfaceMismatch"), std::string::npos);

    // The declared interface works.
    Proxy right(*channel.value(), echo.guid(), Guid::fromName("IEcho"));
    Bytes result;
    right.invoke("Reverse", Bytes{1, 2}, [&](Result<Bytes> r) {
        ASSERT_TRUE(r.ok());
        result = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(result, (Bytes{2, 1}));

    // The IOffcode identity (the Offcode's own GUID) always works.
    Proxy identity(*channel.value(), echo.guid(), echo.guid());
    bool ok = false;
    identity.invoke("Reverse", Bytes{3}, [&](Result<Bytes> r) {
        ok = r.ok();
    });
    sim_.runToCompletion();
    EXPECT_TRUE(ok);

    // Undeclared offcodes accept any interface.
    EchoOffcode open;
    EXPECT_TRUE(open.supportsInterface(Guid::fromName("whatever")));
}

TEST_F(ChannelFixture, UnknownMethodReturnsError)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);
    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    Proxy proxy(*channel.value(), echo.guid(), echo.guid());
    bool failed = false;
    proxy.invoke("Nope", Bytes{}, [&](Result<Bytes> r) {
        failed = !r.ok();
    });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
}

TEST_F(ChannelFixture, WriteWithoutPeerFails)
{
    ChannelConfig config;
    auto channel = executive_->createChannel(config, hostSite_);
    Status written = channel.value()->write(Bytes{1});
    EXPECT_FALSE(written);
    EXPECT_EQ(written.code(), ErrorCode::ChannelNotConnected);
}

TEST_F(ChannelFixture, OversizeMessageRejected)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);
    ChannelConfig config;
    config.maxMessageBytes = 64;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);
    Status written = channel.value()->write(Bytes(100, 0));
    EXPECT_FALSE(written);
    EXPECT_EQ(written.code(), ErrorCode::MessageTooLarge);
}

TEST_F(ChannelFixture, UnicastRejectsThirdEndpoint)
{
    EchoOffcode first, second;
    place(first, *deviceSite_);
    place(second, *deviceSite_);

    ChannelConfig config;
    config.type = ChannelConfig::Type::Unicast;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    EXPECT_TRUE(channel.value()->connectOffcode(first).ok());
    Status third = channel.value()->connectOffcode(second);
    EXPECT_FALSE(third);
    EXPECT_EQ(third.code(), ErrorCode::Unsupported);
}

TEST_F(ChannelFixture, MulticastDeliversToAllEndpoints)
{
    EchoOffcode a, b;
    place(a, *deviceSite_);
    place(b, *deviceSite_);

    ChannelConfig config;
    config.type = ChannelConfig::Type::Multicast;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.value()->connectOffcode(a).ok());
    ASSERT_TRUE(channel.value()->connectOffcode(b).ok());

    channel.value()->write(encodeData(Bytes{9}));
    sim_.runToCompletion();
    EXPECT_EQ(a.dataReceived.size(), 1u);
    EXPECT_EQ(b.dataReceived.size(), 1u);
}

TEST_F(ChannelFixture, ClosedChannelRefusesWrites)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);
    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);
    channel.value()->close();
    Status written = channel.value()->write(encodeData(Bytes{1}));
    EXPECT_FALSE(written);
    EXPECT_EQ(written.code(), ErrorCode::ChannelClosed);
}

TEST_F(ChannelFixture, UnreliableChannelDropsWhenRingFull)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.reliable = false;
    config.ringDepth = 4;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    // Burst far beyond the ring depth without letting the sim drain.
    for (int i = 0; i < 64; ++i)
        channel.value()->write(encodeData(Bytes(1024, 1)));
    sim_.runToCompletion();

    EXPECT_GT(channel.value()->stats().messagesDropped, 0u);
    EXPECT_LT(echo.dataReceived.size(), 64u);
}

TEST_F(ChannelFixture, ReliableChannelBacklogsInsteadOfDropping)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.reliable = true;
    config.ringDepth = 4;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    for (int i = 0; i < 64; ++i)
        channel.value()->write(encodeData(Bytes(1024, 1)));
    sim_.runToCompletion();

    EXPECT_EQ(channel.value()->stats().messagesDropped, 0u);
    EXPECT_EQ(echo.dataReceived.size(), 64u);
}

TEST_F(ChannelFixture, HandlerInstallDrainsQueue)
{
    ChannelConfig config;
    config.targetDevice = hostSite_.name();
    auto channel = executive_->createChannel(config, hostSite_);
    EchoOffcode echo;
    place(echo, hostSite_);
    channel.value()->connectOffcode(echo);

    channel.value()->writeFrom(1, encodeData(Bytes{7}));
    sim_.runToCompletion();

    std::vector<Payload> got;
    channel.value()->installCallHandler(
        [&](const Payload &message, std::size_t) {
            got.push_back(message);
        });
    ASSERT_EQ(got.size(), 1u);
}

TEST_F(ChannelFixture, DeviceToDeviceSingleCrossing)
{
    // Second device on the same bus.
    const net::NodeId node2 = net_.addNode("nic2");
    dev::DeviceConfig config2 = dev::ProgrammableNic::nicDefaultConfig();
    config2.name = "nic2";
    dev::ProgrammableNic nic2(sim_, machine_.bus(), net_, node2, config2);
    DeviceSite site2(machine_, nic2);
    extraSites_[site2.name()] = &site2;

    EchoOffcode echo;
    place(echo, site2);

    ChannelConfig config;
    config.targetDevice = site2.name();
    auto channel = executive_->createChannel(config, *deviceSite_);
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(channel.value()->connectOffcode(echo).ok());

    const auto busBefore = machine_.bus().stats().transactions;
    channel.value()->write(encodeData(Bytes(512, 2)));
    sim_.runToCompletion();
    EXPECT_EQ(machine_.bus().stats().transactions - busBefore, 1u);
    EXPECT_EQ(echo.dataReceived.size(), 1u);
}

TEST_F(ChannelFixture, CopyingChannelTouchesHostCache)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.buffering = ChannelConfig::Buffering::Copying;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    const auto accessesBefore = machine_.l2().totals().accesses;
    channel.value()->write(encodeData(Bytes(4096, 1)));
    sim_.runToCompletion();
    EXPECT_GT(machine_.l2().totals().accesses, accessesBefore);
}

TEST_F(ChannelFixture, ZeroCopySparesTheHostCache)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.buffering = ChannelConfig::Buffering::ZeroCopy;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    const auto accessesBefore = machine_.l2().totals().accesses;
    channel.value()->write(encodeData(Bytes(4096, 1)));
    sim_.runToCompletion();
    EXPECT_EQ(machine_.l2().totals().accesses, accessesBefore);
}

TEST_F(ChannelFixture, BacklogDrainsInFifoOrder)
{
    // A ring of 4 descriptors against a burst of 32: most messages
    // sit in the reliable backlog and must drain in send order as
    // descriptors recycle.
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.reliable = true;
    config.ringDepth = 4;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    for (int i = 0; i < 32; ++i)
        channel.value()->write(
            encodeData(Bytes{static_cast<std::uint8_t>(i)}));
    sim_.runToCompletion();

    ASSERT_EQ(echo.dataReceived.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(echo.dataReceived[static_cast<std::size_t>(i)],
                  Bytes{static_cast<std::uint8_t>(i)})
            << "out of order at index " << i;
    EXPECT_EQ(channel.value()->stats().messagesDropped, 0u);
}

TEST_F(ChannelFixture, UnreliableDropCountMatchesOfferedMinusDelivered)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.reliable = false;
    config.ringDepth = 4;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    constexpr std::size_t kOffered = 64;
    for (std::size_t i = 0; i < kOffered; ++i)
        channel.value()->write(encodeData(Bytes(1024, 1)));
    sim_.runToCompletion();

    // Conservation: every offered message was either delivered or
    // counted as dropped — none vanished, none was duplicated.
    EXPECT_EQ(echo.dataReceived.size() +
                  channel.value()->stats().messagesDropped,
              kOffered);
    EXPECT_GT(channel.value()->stats().messagesDropped, 0u);
}

TEST_F(ChannelFixture, MulticastSharesOneBufferAcrossEndpoints)
{
    // Aliasing invariant of the zero-copy fabric: fan-out hands every
    // endpoint a view of the sender's single buffer, and nothing in
    // flight mutates the shared bytes.
    EchoOffcode a, b;
    place(a, *deviceSite_);
    place(b, *deviceSite_);

    ChannelConfig config;
    config.type = ChannelConfig::Type::Multicast;
    config.reliable = true;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(channel.value()->connectOffcode(a).ok());
    ASSERT_TRUE(channel.value()->connectOffcode(b).ok());

    const Payload message = encodeData(Bytes(2048, 0x3c));
    const std::uint8_t *wire = message.data();
    channel.value()->write(message); // sender keeps its reference
    sim_.runToCompletion();

    ASSERT_EQ(a.dataReceived.size(), 1u);
    ASSERT_EQ(b.dataReceived.size(), 1u);
    // Both endpoints hold slices of the sender's own buffer (the
    // body starts after the 5-byte Data frame header)...
    EXPECT_EQ(a.dataReceived[0].data(), wire + 5);
    EXPECT_EQ(b.dataReceived[0].data(), wire + 5);
    // ...and the shared content is intact after the fan-out.
    EXPECT_EQ(a.dataReceived[0], Bytes(2048, 0x3c));
    EXPECT_EQ(message.refCount(), 3u); // sender + two retained views
}

TEST_F(ChannelFixture, ZeroCopyDeliveryMakesNoDeepCopies)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.buffering = ChannelConfig::Buffering::ZeroCopy;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    const Payload message = encodeData(Bytes(4096, 1));
    auto &registry = obs::MetricsRegistry::instance();
    const auto channelCopiesBefore = registry.counterValue(
        "channel.payload_copies", {{"buffering", "zero-copy"}});
    const auto deepCopiesBefore = payloadPoolStats().deepCopies;

    for (int i = 0; i < 16; ++i)
        channel.value()->write(message);
    sim_.runToCompletion();

    ASSERT_EQ(echo.dataReceived.size(), 16u);
    // The whole send -> DMA -> dispatch pipeline moved references,
    // never bytes.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "zero-copy"}}),
              channelCopiesBefore);
    EXPECT_EQ(payloadPoolStats().deepCopies, deepCopiesBefore);
}

TEST_F(ChannelFixture, CopyingModeChargesTheCopyCounter)
{
    EchoOffcode echo;
    place(echo, *deviceSite_);

    ChannelConfig config;
    config.buffering = ChannelConfig::Buffering::Copying;
    config.targetDevice = deviceSite_->name();
    auto channel = executive_->createChannel(config, hostSite_);
    channel.value()->connectOffcode(echo);

    auto &registry = obs::MetricsRegistry::instance();
    auto copies = [&registry]() {
        return registry.counterValue("channel.payload_copies",
                                    {{"buffering", "copying"}});
    };

    // Host -> device: one staged copy into the ring slot; the device
    // then reads the descriptor directly.
    const auto before = copies();
    channel.value()->write(encodeData(Bytes(1024, 1)));
    sim_.runToCompletion();
    EXPECT_EQ(copies(), before + 1);

    // Device -> host: one copy out of the ring into the user buffer
    // on the receiving host (the message waits in the poll queue).
    channel.value()->writeFrom(1, encodeData(Bytes(1024, 2)));
    sim_.runToCompletion();
    EXPECT_EQ(copies(), before + 2);
}

// ------------------------------------------------- Chaos pool failure

/** Leaves the process-wide chaos engine disarmed after each test. */
class ChannelPoolFailFixture : public ChannelFixture
{
  protected:
    /** Chaos `poolfail=1`: every channel write sees pool exhaustion. */
    void
    armPoolFail()
    {
        chaos::ChaosSpec spec;
        spec.seed = 1;
        spec.poolExhaust = 1.0;
        chaos::ChaosEngine::instance().configure(spec);
    }

    void
    TearDown() override
    {
        chaos::ChaosEngine::instance().disable();
    }
};

TEST_F(ChannelPoolFailFixture, WriteFailsOutOfMemoryOnLocalAndRing)
{
    auto &registry = obs::MetricsRegistry::instance();
    auto faults = [&registry]() {
        return registry.counterValue("chaos.injected",
                                    {{"fault", "pool_exhausted"}});
    };
    // hostSite_ -> hostSite_ is a LocalChannel; hostSite_ -> the NIC
    // is a RingChannel.
    for (ExecutionSite *target : {static_cast<ExecutionSite *>(&hostSite_),
                                  static_cast<ExecutionSite *>(
                                      deviceSite_.get())}) {
        SCOPED_TRACE(target->name());
        EchoOffcode echo;
        place(echo, *target);
        ChannelConfig config;
        config.targetDevice = target->name();
        auto channel = executive_->createChannel(config, hostSite_);
        ASSERT_TRUE(channel.ok());
        ASSERT_TRUE(channel.value()->connectOffcode(echo).ok());

        armPoolFail();
        const auto before = faults();
        Status written = channel.value()->write(encodeData(Bytes(64, 1)));
        EXPECT_FALSE(written);
        EXPECT_EQ(written.code(), ErrorCode::OutOfMemory);
        sim_.runToCompletion();
        EXPECT_EQ(faults(), before + 1);
        EXPECT_EQ(channel.value()->stats().messagesSent, 0u);
        EXPECT_EQ(channel.value()->stats().messagesDelivered, 0u);
        EXPECT_TRUE(echo.dataReceived.empty());

        // Disarmed, the same write goes through: the fault was the
        // only thing stopping it.
        chaos::ChaosEngine::instance().disable();
        EXPECT_TRUE(channel.value()->write(encodeData(Bytes(64, 2))).ok());
        sim_.runToCompletion();
        ASSERT_EQ(echo.dataReceived.size(), 1u);
        EXPECT_EQ(echo.dataReceived[0], Bytes(64, 2));
    }
}

TEST_F(ChannelFixture, ThousandQueuedMessagesDrainInOrderToALateHandler)
{
    ChannelConfig config;
    config.targetDevice = deviceSite_->name();
    auto created = executive_->createChannel(config, hostSite_);
    ASSERT_TRUE(created.ok());
    Channel &channel = *created.value();
    auto device = channel.connectSite(*deviceSite_);
    ASSERT_TRUE(device.ok());

    // Endpoint 0 has no handler. 1,000 writes overrun the 64-deep
    // ring, so they wait in the ring's backlog, then in the endpoint
    // queue.
    constexpr std::size_t kMessages = 1000;
    for (std::size_t i = 0; i < kMessages; ++i) {
        Bytes body{static_cast<std::uint8_t>(i & 0xff),
                   static_cast<std::uint8_t>(i >> 8)};
        ASSERT_TRUE(
            channel.writeFrom(device.value(), Payload(std::move(body))).ok());
    }
    sim_.runToCompletion();

    auto index = [](const Payload &message) {
        return static_cast<std::size_t>(message.data()[0]) |
               static_cast<std::size_t>(message.data()[1]) << 8;
    };
    std::vector<std::size_t> order;
    channel.installHandler(0, [&](const Payload &message, std::size_t) {
        order.push_back(index(message));
    });

    ASSERT_EQ(order.size(), kMessages);
    for (std::size_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(order[i], i) << "out of order at " << i;
    // The queue is empty: a later write goes straight to the handler.
    ASSERT_TRUE(channel.writeFrom(device.value(), Payload(Bytes{0xe8, 3})).ok());
    sim_.runToCompletion();
    ASSERT_EQ(order.size(), kMessages + 1);
    EXPECT_EQ(order.back(), kMessages);
}

} // namespace
} // namespace hydra::core
