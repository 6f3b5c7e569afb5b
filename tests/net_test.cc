/**
 * @file
 * Unit tests for the network substrate: switched fabric, NFS-lite,
 * and the Foong-style TCP path cost model behind Fig. 1.
 */

#include <gtest/gtest.h>

#include "net/network.hh"
#include "net/nfs.hh"
#include "net/tcp_model.hh"
#include "exec/sim_executor.hh"

namespace hydra::net {
namespace {

class NetworkTest : public ::testing::Test
{
  protected:
    NetworkTest() : net_(sim_, NetworkConfig{})
    {
        a_ = net_.addNode("a");
        b_ = net_.addNode("b");
    }

    Packet
    makePacket(NodeId src, NodeId dst, Port port, std::size_t bytes)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.srcPort = 1000;
        p.dstPort = port;
        p.payload = Bytes(bytes, 0x5a);
        return p;
    }

    exec::SimExecutor sim_;
    Network net_;
    NodeId a_ = 0, b_ = 0;
};

TEST_F(NetworkTest, DeliversToBoundHandler)
{
    int received = 0;
    ASSERT_TRUE(net_.bind(b_, 80, [&](const Packet &p) {
        ++received;
        EXPECT_EQ(p.payload.size(), 100u);
        EXPECT_EQ(p.src, 0u);
    }));
    EXPECT_TRUE(net_.send(makePacket(a_, b_, 80, 100)));
    sim_.runToCompletion();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(net_.stats().packetsDelivered, 1u);
}

TEST_F(NetworkTest, DeliveryTakesWireTime)
{
    sim::SimTime delivered = 0;
    net_.bind(b_, 80, [&](const Packet &) { delivered = sim_.now(); });
    net_.send(makePacket(a_, b_, 80, 1024));
    sim_.runToCompletion();
    // Two serializations (~8.5 us each at 1 Gbps) + latencies.
    EXPECT_GT(delivered, sim::microseconds(17));
    EXPECT_LT(delivered, sim::microseconds(60));
}

TEST_F(NetworkTest, UnboundPortCountsAsDrop)
{
    net_.send(makePacket(a_, b_, 9999, 10));
    sim_.runToCompletion();
    EXPECT_EQ(net_.stats().packetsDropped, 1u);
    EXPECT_EQ(net_.stats().packetsDelivered, 0u);
}

TEST_F(NetworkTest, BadAddressFailsFast)
{
    Packet p = makePacket(a_, 999, 80, 10);
    Status sent = net_.send(std::move(p));
    EXPECT_FALSE(sent);
    EXPECT_EQ(sent.code(), ErrorCode::NetworkUnreachable);
}

TEST_F(NetworkTest, OversizedPayloadRejected)
{
    Packet p = makePacket(a_, b_, 80, 128 * 1024);
    Status sent = net_.send(std::move(p));
    EXPECT_FALSE(sent);
    EXPECT_EQ(sent.code(), ErrorCode::MessageTooLarge);
}

TEST_F(NetworkTest, DoubleBindRejected)
{
    net_.bind(b_, 80, [](const Packet &) {});
    Status second = net_.bind(b_, 80, [](const Packet &) {});
    EXPECT_FALSE(second);
    EXPECT_EQ(second.code(), ErrorCode::AlreadyExists);
}

TEST_F(NetworkTest, UnbindThenRebindWorks)
{
    net_.bind(b_, 80, [](const Packet &) {});
    net_.unbind(b_, 80);
    EXPECT_TRUE(net_.bind(b_, 80, [](const Packet &) {}));
}

TEST_F(NetworkTest, InOrderPerSender)
{
    std::vector<std::uint64_t> seqs;
    net_.bind(b_, 80, [&](const Packet &p) { seqs.push_back(p.seq); });
    for (std::uint64_t i = 0; i < 20; ++i) {
        Packet p = makePacket(a_, b_, 80, 500);
        p.seq = i;
        net_.send(std::move(p));
    }
    sim_.runToCompletion();
    ASSERT_EQ(seqs.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(seqs[i], i);
}

TEST(NetworkDropTest, LossyFabricDropsStatistically)
{
    exec::SimExecutor sim;
    NetworkConfig config;
    config.dropProbability = 0.5;
    config.seed = 3;
    Network net(sim, config);
    const NodeId a = net.addNode("a");
    const NodeId b = net.addNode("b");
    int received = 0;
    net.bind(b, 80, [&](const Packet &) { ++received; });
    for (int i = 0; i < 1000; ++i) {
        Packet p;
        p.src = a;
        p.dst = b;
        p.dstPort = 80;
        p.payload = Bytes(10, 1);
        net.send(std::move(p));
    }
    sim.runToCompletion();
    EXPECT_GT(received, 400);
    EXPECT_LT(received, 600);
    EXPECT_EQ(net.stats().packetsDropped + received, 1000u);
}

// ---------------------------------------------------------------- NFS

class NfsTest : public ::testing::Test
{
  protected:
    NfsTest() : net_(sim_, NetworkConfig{})
    {
        serverNode_ = net_.addNode("nas");
        clientNode_ = net_.addNode("host");
        server_ = std::make_unique<NfsServer>(net_, serverNode_);
        client_ = std::make_unique<NfsClient>(net_, clientNode_,
                                              serverNode_);
    }

    /** Store @p content as @p file on the server. */
    void
    put(const std::string &file, Bytes content)
    {
        server_->putFile(file,
                         std::make_shared<const Bytes>(std::move(content)));
    }

    /** Size of @p file as GetSize answers it (0 on error). */
    std::uint64_t
    sizeOf(const std::string &file)
    {
        std::uint64_t size = 0;
        client_->getSize(file, [&](Result<std::uint64_t> r) {
            ASSERT_TRUE(r.ok());
            size = r.value();
        });
        sim_.runToCompletion();
        return size;
    }

    /** Bytes of @p file as a Read from @p offset answers them. */
    Bytes
    readBack(const std::string &file, std::uint64_t offset,
             std::uint32_t length)
    {
        Bytes got;
        client_->read(file, offset, length, [&](Result<Bytes> r) {
            ASSERT_TRUE(r.ok());
            got = r.value();
        });
        sim_.runToCompletion();
        return got;
    }

    void
    writeAt(const std::string &file, std::uint64_t offset, const Bytes &data)
    {
        bool ok = false;
        client_->write(file, offset, data, [&](Status s) { ok = s.ok(); });
        sim_.runToCompletion();
        EXPECT_TRUE(ok);
    }

    exec::SimExecutor sim_;
    Network net_;
    NodeId serverNode_ = 0, clientNode_ = 0;
    std::unique_ptr<NfsServer> server_;
    std::unique_ptr<NfsClient> client_;
};

TEST_F(NfsTest, ReadReturnsFileContent)
{
    put("movie", Bytes{10, 20, 30, 40, 50});
    Bytes got;
    client_->read("movie", 1, 3, [&](Result<Bytes> r) {
        ASSERT_TRUE(r.ok());
        got = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(got, (Bytes{20, 30, 40}));
    EXPECT_EQ(client_->outstanding(), 0u);
}

TEST_F(NfsTest, ReadPastEndIsShort)
{
    put("f", Bytes{1, 2, 3});
    Bytes got{9}; // sentinel
    client_->read("f", 2, 100, [&](Result<Bytes> r) {
        ASSERT_TRUE(r.ok());
        got = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(got, (Bytes{3}));
}

TEST_F(NfsTest, MissingFileReportsError)
{
    bool failed = false;
    client_->read("nope", 0, 10, [&](Result<Bytes> r) {
        failed = !r.ok();
    });
    sim_.runToCompletion();
    EXPECT_TRUE(failed);
}

TEST_F(NfsTest, WriteCreatesAndExtends)
{
    bool ok = false;
    client_->write("new", 4, Bytes{7, 8}, [&](Status s) { ok = s.ok(); });
    sim_.runToCompletion();
    ASSERT_TRUE(ok);
    auto content = server_->fileContent("new");
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(content.value(), (Bytes{0, 0, 0, 0, 7, 8}));
}

TEST_F(NfsTest, WriteOverlaysExisting)
{
    put("f", Bytes{1, 1, 1, 1});
    client_->write("f", 1, Bytes{9, 9}, [](Status) {});
    sim_.runToCompletion();
    EXPECT_EQ(server_->fileContent("f").value(), (Bytes{1, 9, 9, 1}));
}

TEST_F(NfsTest, GetSize)
{
    put("f", Bytes(12345, 0));
    std::uint64_t size = 0;
    client_->getSize("f", [&](Result<std::uint64_t> r) {
        ASSERT_TRUE(r.ok());
        size = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(size, 12345u);
}

TEST_F(NfsTest, ConcurrentRequestsCorrelateByXid)
{
    put("a", Bytes{1});
    put("b", Bytes{2});
    Bytes gotA, gotB;
    client_->read("a", 0, 1, [&](Result<Bytes> r) { gotA = r.value(); });
    client_->read("b", 0, 1, [&](Result<Bytes> r) { gotB = r.value(); });
    EXPECT_EQ(client_->outstanding(), 2u);
    sim_.runToCompletion();
    EXPECT_EQ(gotA, (Bytes{1}));
    EXPECT_EQ(gotB, (Bytes{2}));
}

TEST_F(NfsTest, TwoClientsDistinctReplyPorts)
{
    NfsClient second(net_, clientNode_, serverNode_, 40000);
    put("f", Bytes{5});
    int done = 0;
    client_->read("f", 0, 1, [&](Result<Bytes>) { ++done; });
    second.read("f", 0, 1, [&](Result<Bytes>) { ++done; });
    sim_.runToCompletion();
    EXPECT_EQ(done, 2);
}

TEST_F(NfsTest, AppendsGiveTheFileResizeAndCopyGave)
{
    // Writes at the end of the file take the append path; the file
    // must equal what the resize + zero-fill + copy path built.
    Bytes expected;
    std::uint8_t next = 1;
    for (std::size_t size : {1000u, 1u, 4096u, 37u, 0u, 1024u, 9000u}) {
        Bytes data(size);
        for (auto &byte : data)
            byte = next++;
        const std::size_t offset = expected.size();
        writeAt("rec", offset, data);
        if (expected.size() < offset + size)
            expected.resize(offset + size);
        std::copy(data.begin(), data.end(),
                  expected.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    EXPECT_EQ(server_->fileContent("rec").value(), expected);
    EXPECT_EQ(sizeOf("rec"), expected.size());
}

TEST_F(NfsTest, WritePastEndReadsZerosInTheGap)
{
    put("f", Bytes{1, 2});
    writeAt("f", 6, Bytes{7, 8});
    EXPECT_EQ(readBack("f", 0, 100), (Bytes{1, 2, 0, 0, 0, 0, 7, 8}));
    // An append after the sparse write lands at the new end.
    writeAt("f", 8, Bytes{9});
    EXPECT_EQ(readBack("f", 0, 100), (Bytes{1, 2, 0, 0, 0, 0, 7, 8, 9}));
}

TEST_F(NfsTest, OverwriteInTheMiddleKeepsTheSize)
{
    put("f", Bytes{0, 1, 2, 3, 4, 5, 6, 7});
    writeAt("f", 3, Bytes{30, 40});
    EXPECT_EQ(readBack("f", 0, 100), (Bytes{0, 1, 2, 30, 40, 5, 6, 7}));
    EXPECT_EQ(sizeOf("f"), 8u);
    // A write that straddles the end overwrites, then extends.
    writeAt("f", 7, Bytes{70, 80});
    EXPECT_EQ(readBack("f", 0, 100),
              (Bytes{0, 1, 2, 30, 40, 5, 6, 70, 80}));
}

TEST_F(NfsTest, SharedFileIsCopyOnWrite)
{
    const auto shared = std::make_shared<const Bytes>(Bytes{1, 2, 3, 4});
    server_->putFile("a", shared);
    server_->putFile("b", shared);
    // Both files serve the caller's buffer, uncopied.
    EXPECT_EQ(shared.use_count(), 3);
    EXPECT_EQ(readBack("a", 1, 2), (Bytes{2, 3}));
    EXPECT_EQ(sizeOf("a"), 4u);

    writeAt("a", 1, Bytes{9});
    EXPECT_EQ(*shared, (Bytes{1, 2, 3, 4}));
    EXPECT_EQ(shared.use_count(), 2);
    EXPECT_EQ(server_->fileContent("a").value(), (Bytes{1, 9, 3, 4}));
    EXPECT_EQ(server_->fileContent("b").value(), (Bytes{1, 2, 3, 4}));

    // An append to a shared file copies it too.
    writeAt("b", 4, Bytes{5});
    EXPECT_EQ(*shared, (Bytes{1, 2, 3, 4}));
    EXPECT_EQ(shared.use_count(), 1);
    EXPECT_EQ(readBack("b", 0, 100), (Bytes{1, 2, 3, 4, 5}));
}

TEST_F(NfsTest, GetSizeWhileSharedAndOnceOwned)
{
    server_->putFile("m",
                     std::make_shared<const Bytes>(Bytes(12345, 7)));
    EXPECT_EQ(sizeOf("m"), 12345u);
    writeAt("m", 12345, Bytes(55, 1));
    EXPECT_EQ(sizeOf("m"), 12400u);
    writeAt("m", 0, Bytes{2});
    EXPECT_EQ(sizeOf("m"), 12400u);
}

/** An NFS-lite request in its wire layout, built field by field. */
Bytes
handBuiltRequest(NfsOp op, std::uint64_t xid, const std::string &file,
                 std::uint64_t offset, std::uint32_t length,
                 const Bytes &data)
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU8(static_cast<std::uint8_t>(op));
    writer.writeU64(xid);
    writer.writeString(file);
    writer.writeU64(offset);
    writer.writeU32(length);
    writer.writeBytes(data);
    return out;
}

/** Collects every datagram that reaches @p node : @p port. */
void
capture(Network &net, NodeId node, Port port, std::vector<Bytes> &into)
{
    EXPECT_TRUE(net.bind(node, port, [&into](const Packet &p) {
                       into.emplace_back(p.payload.begin(),
                                         p.payload.end());
                   }).ok());
}

TEST_F(NfsTest, RequestBytesMatchWireLayout)
{
    // A bare handler on a third node stands in for the server.
    const NodeId fake = net_.addNode("fake-nas");
    NfsClient client(net_, clientNode_, fake, 40001);
    std::vector<Bytes> seen;
    capture(net_, fake, kNfsPort, seen);

    client.write("f", 5, Bytes{0xaa, 0xbb}, [](Status) {});
    client.read("f", 2, 10, [](Result<Bytes>) {});
    sim_.runToCompletion();

    // [op u8][xid u64][file: len u32 + bytes][offset u64][length u32]
    // [data: len u32 + bytes]
    const Bytes write = {3, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'f',
                         5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                         2, 0, 0, 0, 0xaa, 0xbb};
    const Bytes read = {2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'f',
                        2, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0,
                        0, 0, 0, 0};
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], write);
    EXPECT_EQ(seen[1], read);
}

TEST_F(NfsTest, ReplyBytesMatchWireLayout)
{
    put("f", Bytes{10, 20, 30, 40});
    std::vector<Bytes> replies;
    capture(net_, clientNode_, 40002, replies);
    auto ask = [&](Bytes request) {
        Packet packet;
        packet.src = clientNode_;
        packet.dst = serverNode_;
        packet.srcPort = 40002;
        packet.dstPort = kNfsPort;
        packet.payload = Payload(std::move(request));
        net_.send(std::move(packet));
    };
    ask(handBuiltRequest(NfsOp::Read, 7, "f", 1, 2, {}));
    ask(handBuiltRequest(NfsOp::GetSize, 8, "f", 0, 0, {}));
    ask(handBuiltRequest(NfsOp::Write, 9, "f", 3, 0, {50, 60}));
    ask(handBuiltRequest(NfsOp::Lookup, 10, "no", 0, 0, {}));
    sim_.runToCompletion();

    // [status u8][xid u64][request op u8], then the length-prefixed
    // result (ReplyOk = 100) or the error string (ReplyError = 101).
    const Bytes read = {100, 7, 0, 0, 0, 0, 0, 0, 0, 2,
                        2, 0, 0, 0, 20, 30};
    const Bytes size = {100, 8, 0, 0, 0, 0, 0, 0, 0, 4,
                        8, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0};
    const Bytes write = {100, 9, 0, 0, 0, 0, 0, 0, 0, 3,
                         4, 0, 0, 0, 2, 0, 0, 0};
    Bytes lookup = {101, 10, 0, 0, 0, 0, 0, 0, 0, 1, 12, 0, 0, 0};
    for (char c : std::string("no such file"))
        lookup.push_back(static_cast<std::uint8_t>(c));
    ASSERT_EQ(replies.size(), 4u);
    EXPECT_EQ(replies[0], read);
    EXPECT_EQ(replies[1], size);
    EXPECT_EQ(replies[2], write);
    EXPECT_EQ(replies[3], lookup);
    EXPECT_EQ(server_->fileContent("f").value(),
              (Bytes{10, 20, 30, 50, 60}));
}

TEST_F(NfsTest, WriteAboveMaxPayloadFailsWithoutAReply)
{
    // 70,000 bytes do not fit one 64 KiB packet: the network refuses
    // the request, and the callback still fires, with the error.
    bool called = false;
    Status result = Status::success();
    client_->write("f", 0, Bytes(70000, 1), [&](Status s) {
        called = true;
        result = s;
    });
    sim_.runToCompletion();
    EXPECT_TRUE(called);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(client_->outstanding(), 0u);
    EXPECT_FALSE(server_->hasFile("f"));
}

TEST_F(NfsTest, ReadAboveMaxPayloadRepliesWithAnError)
{
    // The request fits; the 70,000-byte reply does not, so the server
    // answers ReplyError instead of leaving the client waiting.
    put("big", Bytes(70000, 3));
    bool called = false;
    bool ok = true;
    client_->read("big", 0, 70000, [&](Result<Bytes> r) {
        called = true;
        ok = r.ok();
    });
    sim_.runToCompletion();
    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
    EXPECT_EQ(client_->outstanding(), 0u);
}

TEST_F(NfsTest, WriteBeyondMaxFileSizeIsRejected)
{
    // The write's end offset is wire data: a corrupted or hostile
    // offset must not size the file.
    std::vector<Bytes> replies;
    capture(net_, clientNode_, 40003, replies);
    auto ask = [&](std::uint64_t offset, const Bytes &data) {
        Packet packet;
        packet.src = clientNode_;
        packet.dst = serverNode_;
        packet.srcPort = 40003;
        packet.dstPort = kNfsPort;
        packet.payload = Payload(
            handBuiltRequest(NfsOp::Write, 1, "f", offset, 0, data));
        net_.send(std::move(packet));
    };
    ask(~std::uint64_t{0} - 1, Bytes{1, 2, 3, 4}); // end overflows
    ask(kNfsMaxFileBytes, Bytes{1});               // one past the max
    ask(kNfsMaxFileBytes - 1, Bytes{1, 2});        // straddles the max
    sim_.runToCompletion();

    ASSERT_EQ(replies.size(), 3u);
    for (const Bytes &reply : replies)
        EXPECT_EQ(reply[0], static_cast<std::uint8_t>(NfsOp::ReplyError));
    EXPECT_FALSE(server_->hasFile("f"));
    EXPECT_EQ(server_->requestsServed(), 3u);
}

// ---------------------------------------------------------------- Fig. 1 model

TEST(TcpModelTest, RatioDecreasesWithPacketSize)
{
    TcpPathModel model;
    const auto small = model.evaluate(TcpDirection::Transmit, 64);
    const auto medium = model.evaluate(TcpDirection::Transmit, 1460);
    const auto large = model.evaluate(TcpDirection::Transmit, 65536);
    EXPECT_GT(small.ghzPerGbps, medium.ghzPerGbps);
    EXPECT_GT(medium.ghzPerGbps, large.ghzPerGbps);
}

TEST(TcpModelTest, ReceiveCostsMoreThanTransmit)
{
    TcpPathModel model;
    for (std::size_t bytes : {64u, 512u, 1460u, 16384u, 65536u}) {
        const auto tx = model.evaluate(TcpDirection::Transmit, bytes);
        const auto rx = model.evaluate(TcpDirection::Receive, bytes);
        EXPECT_GT(rx.ghzPerGbps, tx.ghzPerGbps) << "at " << bytes;
    }
}

TEST(TcpModelTest, SmallPacketsAreCpuBound)
{
    TcpPathModel model;
    const auto point = model.evaluate(TcpDirection::Receive, 64);
    // The CPU saturates before the wire does.
    EXPECT_LT(point.throughputGbps, model.costs().lineRateGbps);
    EXPECT_DOUBLE_EQ(point.cpuUtilization, 1.0);
}

TEST(TcpModelTest, LargePacketsAreLineRateBound)
{
    TcpPathModel model;
    const auto point = model.evaluate(TcpDirection::Transmit, 65536);
    EXPECT_DOUBLE_EQ(point.throughputGbps, model.costs().lineRateGbps);
    EXPECT_LT(point.cpuUtilization, 1.0);
}

TEST(TcpModelTest, GhzPerGbpsIdentityHolds)
{
    // ratio == util * clock / throughput by definition.
    TcpPathModel model;
    const auto p = model.evaluate(TcpDirection::Receive, 1024);
    EXPECT_NEAR(p.ghzPerGbps,
                p.cpuUtilization * model.costs().hostClockGhz /
                    p.throughputGbps,
                1e-12);
}

TEST(TcpModelTest, RuleOfThumbNearOneGhzPerGbpsAtMtu)
{
    // Foong et al.'s headline: roughly 1 GHz of CPU per 1 Gbps of
    // TCP at common packet sizes.
    TcpPathModel model;
    const auto p = model.evaluate(TcpDirection::Receive, 1460);
    EXPECT_GT(p.ghzPerGbps, 0.5);
    EXPECT_LT(p.ghzPerGbps, 2.0);
}

} // namespace
} // namespace hydra::net
