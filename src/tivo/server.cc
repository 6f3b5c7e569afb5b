#include "tivo/server.hh"

#include <cmath>

#include "common/logging.hh"

namespace hydra::tivo {

namespace {

constexpr std::size_t kSkbPoolSlots = 16;
constexpr std::size_t kReadaheadWindow = 8;

} // namespace

// --------------------------------------------------------------------
// SimpleServer
// --------------------------------------------------------------------

SimpleServer::SimpleServer(hw::Machine &machine, dev::ProgrammableNic &nic,
                           net::Network &network, ServerConfig config)
    : machine_(machine), nic_(nic), config_(config)
{
    nfs_ = std::make_unique<net::NfsClient>(network, nic_.nodeId(),
                                            config_.nasNode,
                                            /*reply_port=*/33070);
    hw::OsKernel &os = machine_.os();
    kernelBuffer_ = os.allocRegion(config_.chunkBytes * 2);
    userBuffer_ = os.allocRegion(config_.chunkBytes * 2);
    skbPool_ = os.allocRegion(kSkbPoolSlots * config_.chunkBytes);
}

SimpleServer::~SimpleServer()
{
    stop();
}

Status
SimpleServer::startStreaming()
{
    if (running_)
        return Status(ErrorCode::AlreadyExists, "already streaming");
    running_ = true;
    nfs_->getSize(config_.movieFile, [this](Result<std::uint64_t> size) {
        if (!size) {
            LOG_ERROR << "SimpleServer: movie missing: "
                      << size.error().describe();
            running_ = false;
            return;
        }
        fileSize_ = size.value();
        const sim::SimTime wake =
            machine_.os().wakeAfter(config_.sendPeriod);
        machine_.executor().scheduleAt(wake, [this]() { iteration(); });
    });
    return Status::success();
}

void
SimpleServer::stop()
{
    running_ = false;
}

void
SimpleServer::iteration()
{
    if (!running_ || fileSize_ == 0)
        return;

    hw::OsKernel &os = machine_.os();
    os.contextSwitch(); // sleeper scheduled back in
    os.syscall();       // read()

    const std::uint64_t offset = fileOffset_ % fileSize_;
    fileOffset_ += config_.chunkBytes;

    // The read blocks: the payload is on the NAS, one NFS round trip
    // away.
    nfs_->read(config_.movieFile, offset,
               static_cast<std::uint32_t>(config_.chunkBytes),
               [this](Result<Bytes> data) {
                   if (!running_)
                       return;
                   if (!data) {
                       LOG_WARN << "SimpleServer: read failed";
                       return;
                   }

                   hw::OsKernel &os = machine_.os();
                   os.handleInterrupt(); // NFS reply arrival

                   // The blocked process resumes at the next tick.
                   const sim::SimTime resume = os.ioWake();
                   machine_.executor().scheduleAt(
                       resume,
                       [this, chunk = std::move(data).value()]() mutable {
                           if (!running_)
                               return;
                           hw::OsKernel &os = machine_.os();
                           os.contextSwitch();

                           // read(): NFS reply was DMA'd into the
                           // kernel buffer; copy it out to user space.
                           os.dmaDelivered(kernelBuffer_, chunk.size());
                           os.copyBytes(kernelBuffer_, userBuffer_,
                                        chunk.size());

                           // send(): user buffer into a rotating skb.
                           os.syscall();
                           const hw::Addr skb =
                               skbPool_ + skbSlot_ * config_.chunkBytes;
                           skbSlot_ = (skbSlot_ + 1) % kSkbPoolSlots;
                           os.copyBytes(userBuffer_, skb, chunk.size());

                           machine_.cpu().runCycles(
                               config_.simplePathOverheadCycles);

                           net::Packet packet;
                           packet.dst = config_.clientNode;
                           packet.srcPort = config_.videoPort;
                           packet.dstPort = config_.videoPort;
                           packet.seq = seq_++;
                           packet.payload = std::move(chunk);
                           nic_.sendFromHost(std::move(packet));
                           ++chunksSent_;

                           const sim::SimTime wake =
                               os.wakeAfter(config_.sendPeriod);
                           machine_.executor().scheduleAt(
                               wake, [this]() { iteration(); });
                       });
               });
}

// --------------------------------------------------------------------
// SendfileServer
// --------------------------------------------------------------------

SendfileServer::SendfileServer(hw::Machine &machine,
                               dev::ProgrammableNic &nic,
                               net::Network &network, ServerConfig config)
    : machine_(machine), nic_(nic), config_(config)
{
    nfs_ = std::make_unique<net::NfsClient>(network, nic_.nodeId(),
                                            config_.nasNode,
                                            /*reply_port=*/33071);
    pageCache_ = machine_.os().allocRegion(kReadaheadWindow *
                                           config_.chunkBytes);
}

SendfileServer::~SendfileServer()
{
    stop();
}

Status
SendfileServer::startStreaming()
{
    if (running_)
        return Status(ErrorCode::AlreadyExists, "already streaming");
    running_ = true;
    nfs_->getSize(config_.movieFile, [this](Result<std::uint64_t> size) {
        if (!size) {
            LOG_ERROR << "SendfileServer: movie missing: "
                      << size.error().describe();
            running_ = false;
            return;
        }
        fileSize_ = size.value();
        refillReadahead();
        const sim::SimTime wake =
            machine_.os().wakeAfter(config_.sendPeriod);
        machine_.executor().scheduleAt(wake, [this]() { iteration(); });
    });
    return Status::success();
}

void
SendfileServer::stop()
{
    running_ = false;
}

void
SendfileServer::refillReadahead()
{
    if (!running_ || fileSize_ == 0)
        return;
    while (readahead_.size() + readaheadInFlight_ < kReadaheadWindow) {
        ++readaheadInFlight_;
        const std::uint64_t offset = fileOffset_ % fileSize_;
        fileOffset_ += config_.chunkBytes;
        nfs_->read(config_.movieFile, offset,
                   static_cast<std::uint32_t>(config_.chunkBytes),
                   [this](Result<Bytes> data) {
                       if (readaheadInFlight_ > 0)
                           --readaheadInFlight_;
                       if (!running_ || !data)
                           return;
                       // Kernel-side arrival: interrupt plus a DMA
                       // into the page cache — no process wakeup, no
                       // user copy.
                       hw::OsKernel &os = machine_.os();
                       os.handleInterrupt();
                       os.dmaDelivered(pageCache_, data.value().size());
                       readahead_.push_back(std::move(data).value());
                   });
    }
}

void
SendfileServer::iteration()
{
    if (!running_ || fileSize_ == 0)
        return;

    hw::OsKernel &os = machine_.os();
    os.contextSwitch();
    os.syscall(); // sendfile()

    if (readahead_.empty()) {
        // Readahead miss: skip this period (rare at steady state).
        refillReadahead();
    } else {
        Bytes chunk = std::move(readahead_.front());
        readahead_.pop_front();

        machine_.cpu().runCycles(config_.sendfilePathOverheadCycles);

        // Scatter-gather: the NIC DMA-reads the kernel page directly.
        net::Packet packet;
        packet.dst = config_.clientNode;
        packet.srcPort = config_.videoPort;
        packet.dstPort = config_.videoPort;
        packet.seq = seq_++;
        packet.payload = std::move(chunk);
        nic_.sendFromHost(std::move(packet));
        ++chunksSent_;
        refillReadahead();
    }

    const sim::SimTime wake = os.wakeAfter(config_.sendPeriod);
    machine_.executor().scheduleAt(wake, [this]() { iteration(); });
}

// --------------------------------------------------------------------
// OnloadedServer
// --------------------------------------------------------------------

OnloadedServer::OnloadedServer(hw::Machine &machine,
                               dev::ProgrammableNic &nic,
                               net::Network &network, ServerConfig config)
    : machine_(machine), nic_(nic), config_(config),
      rng_(config.nasNode * 977 + 5)
{
    // Piglet-style dedicated I/O core: same silicon as the host CPU.
    ioCpu_ = std::make_unique<hw::Cpu>(machine_.executor(),
                                       machine_.name() + ".iocpu",
                                       machine_.cpu().clockGhz());
    nfs_ = std::make_unique<net::NfsClient>(network, nic_.nodeId(),
                                            config_.nasNode,
                                            /*reply_port=*/33072);
    kernelBuffer_ = machine_.os().allocRegion(config_.chunkBytes *
                                              kReadaheadWindow);
    skbPool_ = machine_.os().allocRegion(kSkbPoolSlots *
                                         config_.chunkBytes);
}

OnloadedServer::~OnloadedServer()
{
    stop();
}

Status
OnloadedServer::startStreaming()
{
    if (running_)
        return Status(ErrorCode::AlreadyExists, "already streaming");
    running_ = true;
    nfs_->getSize(config_.movieFile, [this](Result<std::uint64_t> size) {
        if (!size) {
            LOG_ERROR << "OnloadedServer: movie missing: "
                      << size.error().describe();
            running_ = false;
            return;
        }
        fileSize_ = size.value();
        refillReadahead();
        machine_.executor().schedule(config_.sendPeriod,
                                      [this]() { iteration(); });
    });
    return Status::success();
}

void
OnloadedServer::stop()
{
    running_ = false;
}

void
OnloadedServer::refillReadahead()
{
    if (!running_ || fileSize_ == 0)
        return;
    while (readahead_.size() + readaheadInFlight_ < kReadaheadWindow) {
        ++readaheadInFlight_;
        const std::uint64_t offset = fileOffset_ % fileSize_;
        fileOffset_ += config_.chunkBytes;
        nfs_->read(config_.movieFile, offset,
                   static_cast<std::uint32_t>(config_.chunkBytes),
                   [this](Result<Bytes> data) {
                       if (readaheadInFlight_ > 0)
                           --readaheadInFlight_;
                       if (!running_ || !data)
                           return;
                       // The I/O core polls the NIC: no interrupt on
                       // the application core, but the payload still
                       // lands in host memory.
                       machine_.os().dmaDelivered(kernelBuffer_,
                                                  data.value().size());
                       ioCpu_->runCycles(2000); // poll + protocol
                       readahead_.push_back(std::move(data).value());
                   });
    }
}

void
OnloadedServer::iteration()
{
    if (!running_ || fileSize_ == 0)
        return;

    // The dedicated core busy-polls its timer wheel: no tick
    // quantization, only sub-microsecond polling granularity.
    if (!readahead_.empty()) {
        Bytes chunk = std::move(readahead_.front());
        readahead_.pop_front();

        // Copy into a transmit skb on the I/O core; the shared L2
        // still sees it.
        const hw::Addr skb = skbPool_ + skbSlot_ * config_.chunkBytes;
        skbSlot_ = (skbSlot_ + 1) % kSkbPoolSlots;
        machine_.l2().access(kernelBuffer_, chunk.size(), false);
        machine_.l2().access(skb, chunk.size(), true);
        ioCpu_->runCycles(
            1500 + static_cast<std::uint64_t>(chunk.size()));

        net::Packet packet;
        packet.dst = config_.clientNode;
        packet.srcPort = config_.videoPort;
        packet.dstPort = config_.videoPort;
        packet.seq = seq_++;
        packet.payload = std::move(chunk);
        nic_.sendFromHost(std::move(packet));
        ++chunksSent_;
        refillReadahead();
    }

    // Polling granularity: a handful of microseconds of slop. The
    // dedicated core spins through the whole gap — that is the cost
    // of onloading: the core is 100 % consumed whether or not
    // packets flow.
    const auto slop = static_cast<sim::SimTime>(
        std::abs(rng_.normal(0.0, 4000.0))); // 4 us sigma
    ioCpu_->runFor(config_.sendPeriod + slop);
    machine_.executor().schedule(config_.sendPeriod + slop,
                                  [this]() { iteration(); });
}

// --------------------------------------------------------------------
// OffloadedVideoServer
// --------------------------------------------------------------------

OffloadedVideoServer::OffloadedVideoServer(core::Runtime &runtime,
                                           TivoEnvPtr env)
    : runtime_(runtime), env_(std::move(env))
{
    Status registered =
        registerTivoOffcodes(runtime_, env_, TivoRole::Server);
    if (!registered) {
        error_ = registered.error().describe();
        LOG_ERROR << "OffloadedVideoServer: registration failed: "
                  << error_;
    }
}

Status
OffloadedVideoServer::startStreaming()
{
    if (startRequested_)
        return Status(ErrorCode::AlreadyExists, "already streaming");
    if (!error_.empty())
        return Status(ErrorCode::Internal, error_);
    startRequested_ = true;

    runtime_.createOffcode(
        "tivo.server.Streamer", [this](Result<core::OffcodeHandle> root) {
            if (!root) {
                error_ = root.error().describe();
                LOG_ERROR << "OffloadedVideoServer: deployment failed: "
                          << error_;
                return;
            }
            deployed_ = true;
            // The Streamer Offcode's start() hook began the pacing
            // loop on the NIC already; nothing to do on the host —
            // that is the point.
        });
    return Status::success();
}

void
OffloadedVideoServer::stop()
{
    auto streamer = runtime_.getOffcode("tivo.server.Streamer");
    if (streamer)
        streamer.value().offcode->doStop();
    auto file = runtime_.getOffcode("tivo.server.File");
    if (file)
        file.value().offcode->doStop();
}

std::uint64_t
OffloadedVideoServer::chunksSent() const
{
    auto streamer = const_cast<core::Runtime &>(runtime_).getOffcode(
        "tivo.server.Streamer");
    if (!streamer)
        return 0;
    return static_cast<const ServerStreamerOffcode *>(
               streamer.value().offcode)
        ->chunksSent();
}

} // namespace hydra::tivo
