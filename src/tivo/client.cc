#include "tivo/client.hh"

#include "common/logging.hh"

namespace hydra::tivo {

namespace {

constexpr std::size_t kFrameBufferSlots = 1; // decoder reuses one buffer

} // namespace

// --------------------------------------------------------------------
// UserSpaceClient
// --------------------------------------------------------------------

UserSpaceClient::UserSpaceClient(hw::Machine &machine,
                                 dev::ProgrammableNic &nic, dev::Gpu &gpu,
                                 dev::SmartDisk *disk, ClientConfig config)
    : machine_(machine), nic_(nic), gpu_(gpu), disk_(disk), config_(config)
{
    hw::OsKernel &os = machine_.os();
    rxKernelBuffer_ = os.allocRegion(config_.chunkBytes * 2);
    rxUserBuffer_ = os.allocRegion(config_.chunkBytes * 2);
    gpuStaging_ = os.allocRegion(512 * 1024);
    diskStaging_ = os.allocRegion(64 * 1024);
}

UserSpaceClient::~UserSpaceClient()
{
    stop();
}

Status
UserSpaceClient::startWatching()
{
    if (running_)
        return Status(ErrorCode::AlreadyExists, "already watching");

    Status bound = nic_.bindHostPort(
        config_.videoPort, machine_.os(), rxKernelBuffer_,
        [this](const net::Packet &packet) { onPacket(packet); });
    if (!bound)
        return bound;
    running_ = true;
    return Status::success();
}

void
UserSpaceClient::stop()
{
    if (running_) {
        nic_.unbindPort(config_.videoPort);
        running_ = false;
    }
}

void
UserSpaceClient::onPacket(const net::Packet &packet)
{
    if (!running_)
        return;
    ++packets_;
    if (onPacketArrival)
        onPacketArrival(machine_.executor().now());

    hw::OsKernel &os = machine_.os();

    // recvfrom(): wake + copy to user space.
    os.contextSwitch();
    os.syscall();
    os.copyBytes(rxKernelBuffer_, rxUserBuffer_, packet.payload.size());
    machine_.cpu().runCycles(config_.pathOverheadCycles);

    // Record path: buffer into whole blocks, write() to the disk.
    recordBlockBuffer_.insert(recordBlockBuffer_.end(),
                              packet.payload.begin(),
                              packet.payload.end());
    if (disk_) {
        const std::size_t block = disk_->diskConfig().blockBytes;
        while (recordBlockBuffer_.size() >= block) {
            Bytes blockData(
                recordBlockBuffer_.begin(),
                recordBlockBuffer_.begin() +
                    static_cast<std::ptrdiff_t>(block));
            recordBlockBuffer_.erase(
                recordBlockBuffer_.begin(),
                recordBlockBuffer_.begin() +
                    static_cast<std::ptrdiff_t>(block));
            os.syscall(); // write()
            os.copyBytes(rxUserBuffer_, diskStaging_, block);
            disk_->writeBlocks(recordOffset_ / block, blockData,
                               [](Status status) {
                                   if (!status) {
                                       LOG_WARN << "client record failed";
                                   }
                               });
            recordOffset_ += block;
        }
    }

    // Decode path: software MPEG on the host CPU.
    assembler_.feed(packet.payload);
    if (frameBuffers_ == 0) {
        // Lazily size the frame buffers from the first decoded frame.
        frameBuffers_ = os.allocRegion(kFrameBufferSlots * 512 * 1024);
    }
    while (true) {
        auto encoded = assembler_.nextFrame();
        if (!encoded)
            break;
        if (!decoder_.decode(encoded.value())) {
            ++decodeErrors_;
            decoder_.reset();
            continue;
        }
        const RawFrame &frame = decoder_.frame();
        const std::size_t bytes = frame.bytes();
        // Decode touches the payload and writes the frame buffer —
        // this is "much of" the paper's +12 % client L2 misses.
        machine_.cpu().runCycles(static_cast<std::uint64_t>(
            config_.decodeCyclesPerByte * static_cast<double>(bytes)));
        const hw::Addr slot =
            frameBuffers_ + frameBufferSlot_ * 512 * 1024;
        frameBufferSlot_ = (frameBufferSlot_ + 1) % kFrameBufferSlots;
        machine_.l2().access(slot, bytes, true);

        // Blit: copy into pinned staging, then GPU DMA pulls it.
        os.copyBytes(slot, gpuStaging_, bytes);
        gpu_.dma().start(
            bytes, [this, pixels = frame.pixels]() {
                gpu_.presentFrame(pixels);
            });
        ++frames_;
    }
}

// --------------------------------------------------------------------
// OffloadedClient
// --------------------------------------------------------------------

OffloadedClient::OffloadedClient(core::Runtime &runtime, TivoEnvPtr env)
    : runtime_(runtime), env_(std::move(env))
{
    Status registered =
        registerTivoOffcodes(runtime_, env_, TivoRole::Client);
    if (!registered) {
        error_ = registered.error().describe();
        LOG_ERROR << "OffloadedClient: registration failed: " << error_;
    }
}

Status
OffloadedClient::startWatching()
{
    if (startRequested_)
        return Status(ErrorCode::AlreadyExists, "already watching");
    if (!error_.empty())
        return Status(ErrorCode::Internal, error_);
    startRequested_ = true;

    runtime_.createOffcode(
        "tivo.Gui", [this](Result<core::OffcodeHandle> root) {
            if (!root) {
                error_ = root.error().describe();
                LOG_ERROR << "OffloadedClient: deployment failed: "
                          << error_;
                return;
            }
            deployed_ = true;
        });
    return Status::success();
}

void
OffloadedClient::stop()
{
    for (const char *name :
         {"tivo.StreamerNet", "tivo.StreamerDisk", "tivo.Decoder",
          "tivo.Display", "tivo.File", "tivo.Gui"}) {
        auto handle = runtime_.getOffcode(name);
        if (handle)
            handle.value().offcode->doStop();
    }
}

std::uint64_t
OffloadedClient::packetsReceived() const
{
    const auto *streamer =
        component<StreamerNetOffcode>("tivo.StreamerNet");
    return streamer ? streamer->packetsHandled() : 0;
}

std::uint64_t
OffloadedClient::framesDisplayed() const
{
    const auto *display = component<DisplayOffcode>("tivo.Display");
    return display ? display->framesPresented() : 0;
}

Status
OffloadedClient::replay()
{
    auto *gui = component<GuiOffcode>("tivo.Gui");
    if (!gui)
        return Status(ErrorCode::NotFound, "GUI not deployed");
    return gui->requestReplay();
}

Status
OffloadedClient::stopReplay()
{
    auto *gui = component<GuiOffcode>("tivo.Gui");
    if (!gui)
        return Status(ErrorCode::NotFound, "GUI not deployed");
    return gui->requestStopReplay();
}

} // namespace hydra::tivo
