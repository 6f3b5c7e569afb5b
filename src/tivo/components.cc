#include "tivo/components.hh"

#include <cassert>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace hydra::tivo {

namespace {

/** Host-path per-packet cost constants. */
constexpr std::uint64_t kHostStreamerCycles = 2500;
constexpr std::uint64_t kDeviceStreamerCycles = 900;
constexpr std::uint64_t kDeviceForwardCycles = 400;

/**
 * Begin a pipeline-stage span on the stage's execution lane:
 * process = machine, thread = site (host CPU or device firmware).
 * Compute at a site is modeled busy-until style, so the stage end is
 * the completion time returned by ExecutionSite::run(). Downstream
 * channel writes must happen while the span is alive so they inherit
 * its context and the frame's journey stays one connected trace.
 */
void
openStageSpan(obs::Span &span, core::ExecutionSite &site,
              const char *stage, sim::SimTime started)
{
    if (!HYDRA_TRACE_ACTIVE())
        return;
    span.open(site.machine().name(), site.name(), stage, "tivo",
              started);
}

/**
 * The counter @p name, looked up on the first call and held in
 * @p handle after it: series register in first-use order as before,
 * and the per-event path skips the registry. The registry keeps its
 * instruments for the life of the process, so the handle stays valid.
 */
obs::Counter &
boundCounter(obs::Counter *&handle, std::string_view name)
{
    if (!handle)
        handle = &obs::counter(name);
    return *handle;
}

/** boundCounter() for a series labelled with @p site's kind. */
obs::Counter &
siteCounter(obs::Counter *&handle, std::string_view name,
            core::ExecutionSite &site)
{
    if (!handle)
        handle = &obs::counter(
            name, {{"site", site.isHost() ? "host" : "device"}});
    return *handle;
}

/** Display message body header: width, height, sequence, pixel count. */
constexpr std::size_t kFrameHeaderBytes = 16;

/** Credit grant payload for the server File flow control. */
Bytes
encodeCredits(std::uint32_t count)
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeString("more");
    writer.writeU32(count);
    return out;
}

/** Create a data channel from @p owner to a deployed peer. */
core::Channel *
makeDataChannel(core::Offcode &owner, const std::string &peer_bindname,
                core::ChannelConfig::Type type, std::size_t max_message)
{
    auto peer = owner.runtime().getOffcode(peer_bindname);
    if (!peer) {
        LOG_WARN << owner.bindname() << ": peer " << peer_bindname
                 << " not deployed: " << peer.error().describe();
        return nullptr;
    }

    core::ChannelConfig config;
    config.type = type;
    config.reliable = true;
    config.sync = core::ChannelConfig::Sync::Sequential;
    config.buffering = core::ChannelConfig::Buffering::ZeroCopy;
    config.maxMessageBytes = max_message;
    config.targetDevice = peer.value().deviceAddr();
    // Named for per-channel delivery-latency attribution.
    config.name = owner.bindname() + "->" + peer_bindname;

    auto channel =
        owner.runtime().executive().createChannel(config, owner.site());
    if (!channel) {
        LOG_WARN << owner.bindname() << ": channel to " << peer_bindname
                 << " failed: " << channel.error().describe();
        return nullptr;
    }
    Status connected =
        channel.value()->connectOffcode(*peer.value().offcode);
    if (!connected) {
        LOG_WARN << owner.bindname() << ": connect to " << peer_bindname
                 << " failed: " << connected.error().describe();
        return nullptr;
    }
    return channel.value();
}

} // namespace

// --------------------------------------------------------------------
// StreamerNetOffcode
// --------------------------------------------------------------------

StreamerNetOffcode::StreamerNetOffcode(TivoEnvPtr env)
    : Offcode("tivo.StreamerNet"), env_(std::move(env))
{
}

Status
StreamerNetOffcode::start()
{
    // Fan the received stream out to the Decoder and the disk-side
    // Streamer (paper Fig. 2: a packet goes to the GPU and the disk
    // controller; with a PCIe-style bus this is one transaction).
    auto decoder = runtime().getOffcode("tivo.Decoder");
    if (decoder) {
        core::ChannelConfig config;
        config.type = core::ChannelConfig::Type::Multicast;
        config.reliable = true;
        config.buffering = core::ChannelConfig::Buffering::ZeroCopy;
        config.maxMessageBytes = 8 * 1024;
        config.targetDevice = decoder.value().deviceAddr();
        config.name = "tivo.StreamerNet->fanout";
        auto channel = runtime().executive().createChannel(config, site());
        if (channel) {
            fanout_ = channel.value();
            fanout_->connectOffcode(*decoder.value().offcode);
            auto diskStreamer = runtime().getOffcode("tivo.StreamerDisk");
            if (diskStreamer)
                fanout_->connectOffcode(*diskStreamer.value().offcode);
        }
    }

    if (!env_->nic)
        return Status(ErrorCode::DeviceFault, "no NIC in environment");

    net::PacketHandler handler = [this](const net::Packet &packet) {
        onPacket(packet);
    };

    if (site().device() == env_->nic) {
        // Offloaded: packets terminate on the NIC firmware.
        Status bound =
            env_->nic->bindDevicePort(env_->videoPort, std::move(handler));
        if (!bound)
            return bound;
    } else {
        // Host fallback: DMA + interrupt + kernel/user copy per
        // packet.
        hw::OsKernel &os = site().machine().os();
        hostBuffer_ = os.allocRegion(env_->chunkBytes * 4);
        Status bound = env_->nic->bindHostPort(
            env_->videoPort, os, hostBuffer_, std::move(handler));
        if (!bound)
            return bound;
    }
    portBound_ = true;
    return Status::success();
}

void
StreamerNetOffcode::stop()
{
    if (portBound_ && env_->nic) {
        env_->nic->unbindPort(env_->videoPort);
        portBound_ = false;
    }
}

Bytes
StreamerNetOffcode::snapshotState() const
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(packetsHandled_);
    return out;
}

void
StreamerNetOffcode::restoreState(const Bytes &snapshot)
{
    ByteReader reader(snapshot);
    auto handled = reader.readU64();
    if (handled)
        packetsHandled_ = handled.value();
}

void
StreamerNetOffcode::onPacket(const net::Packet &packet)
{
    ++packetsHandled_;
    const sim::SimTime started = site().machine().executor().now();
    siteCounter(packetsCounter_, "tivo.packets_handled", site()).increment();
    if (env_->onPacketArrival)
        env_->onPacketArrival(started);

    obs::Span span;
    openStageSpan(span, site(), "StreamerNet.onPacket", started);
    sim::SimTime finished;
    if (site().isHost()) {
        hw::OsKernel &os = site().machine().os();
        os.syscall();
        os.copyBytes(hostBuffer_, hostBuffer_ + env_->chunkBytes,
                     packet.payload.size());
        finished = site().run(kHostStreamerCycles);
    } else {
        finished = site().run(kDeviceStreamerCycles);
    }
    span.end(finished);

    if (fanout_) {
        Status written = fanout_->write(core::encodeData(packet.payload));
        if (!written) {
            LOG_DEBUG << "StreamerNet: fanout write failed: "
                      << written.error().describe();
        }
    }
}

// --------------------------------------------------------------------
// StreamerDiskOffcode
// --------------------------------------------------------------------

StreamerDiskOffcode::StreamerDiskOffcode(TivoEnvPtr env)
    : Offcode("tivo.StreamerDisk"), env_(std::move(env))
{
}

Status
StreamerDiskOffcode::start()
{
    toFile_ = makeDataChannel(*this, "tivo.File",
                              core::ChannelConfig::Type::Unicast,
                              8 * 1024);
    if (toFile_) {
        auto file = runtime().getOffcode("tivo.File");
        fileProxy_ = std::make_unique<core::Proxy>(
            *toFile_, file.value().offcode->guid(),
            file.value().offcode->guid());
    }
    if (resumeReplay_) {
        // A predecessor died mid-replay; pick up at the restored
        // offset so the viewer never notices the restart.
        resumeReplay_ = false;
        if (!toDecoder_)
            toDecoder_ = makeDataChannel(
                *this, "tivo.Decoder",
                core::ChannelConfig::Type::Unicast, 8 * 1024);
        replaying_ = true;
        replayTick();
    }
    return Status::success();
}

Bytes
StreamerDiskOffcode::snapshotState() const
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(chunksRecorded_);
    writer.writeU64(chunksReplayed_);
    writer.writeU64(replayOffset_);
    writer.writeU32(replaying_ ? 1 : 0);
    return out;
}

void
StreamerDiskOffcode::restoreState(const Bytes &snapshot)
{
    ByteReader reader(snapshot);
    auto recorded = reader.readU64();
    auto replayed = reader.readU64();
    auto offset = reader.readU64();
    auto replaying = reader.readU32();
    if (!recorded || !replayed || !offset || !replaying)
        return;
    chunksRecorded_ = recorded.value();
    chunksReplayed_ = replayed.value();
    replayOffset_ = offset.value();
    resumeReplay_ = replaying.value() != 0;
}

void
StreamerDiskOffcode::stop()
{
    stopped_ = true;
    replaying_ = false;
}

void
StreamerDiskOffcode::onData(const Payload &payload, core::ChannelHandle from)
{
    (void)from;
    // Record path: store the chunk unmodified, so the stored stream
    // is byte-identical to the live one (the paper's trick that lets
    // one Streamer component serve both devices).
    ++chunksRecorded_;
    boundCounter(recordedCounter_, "tivo.chunks_recorded").increment();
    const sim::SimTime started = site().machine().executor().now();
    obs::Span span;
    openStageSpan(span, site(), "StreamerDisk.record", started);
    span.end(site().run(kDeviceForwardCycles));
    if (toFile_) {
        Status written = toFile_->write(core::encodeData(payload));
        if (!written) {
            LOG_DEBUG << "StreamerDisk: file write failed: "
                      << written.error().describe();
        }
    }
}

void
StreamerDiskOffcode::onManagement(const Payload &payload,
                                  core::ChannelHandle from)
{
    (void)from;
    const std::string command(payload.begin(), payload.end());
    if (command == "replay") {
        if (replaying_)
            return;
        if (!toDecoder_)
            toDecoder_ = makeDataChannel(
                *this, "tivo.Decoder",
                core::ChannelConfig::Type::Unicast, 8 * 1024);
        replaying_ = true;
        replayOffset_ = 0;
        replayTick();
    } else if (command == "stop-replay") {
        replaying_ = false;
    }
}

void
StreamerDiskOffcode::replayTick()
{
    if (!replaying_ || stopped_ || !fileProxy_ || !toDecoder_)
        return;

    Bytes args;
    ByteWriter writer(args);
    writer.writeU64(replayOffset_);
    writer.writeU32(static_cast<std::uint32_t>(env_->chunkBytes));

    fileProxy_->invoke("Read", args, [this](Result<Bytes> data) {
        if (!replaying_ || stopped_)
            return;
        if (!data) {
            LOG_DEBUG << "StreamerDisk: replay read failed: "
                      << data.error().describe();
            replaying_ = false;
            return;
        }
        if (data.value().empty()) {
            replaying_ = false; // end of recording
            return;
        }
        replayOffset_ += data.value().size();
        ++chunksReplayed_;
        boundCounter(replayedCounter_, "tivo.chunks_replayed").increment();
        const sim::SimTime started = site().machine().executor().now();
        {
            obs::Span span;
            openStageSpan(span, site(), "StreamerDisk.replay", started);
            span.end(site().run(kDeviceForwardCycles));
            toDecoder_->write(core::encodeData(data.value()));
        }
        site().timerAfter(env_->sendPeriod, [this]() { replayTick(); });
    });
}

// --------------------------------------------------------------------
// DecoderOffcode
// --------------------------------------------------------------------

DecoderOffcode::DecoderOffcode(TivoEnvPtr env)
    : Offcode("tivo.Decoder"), env_(std::move(env))
{
}

Status
DecoderOffcode::start()
{
    toDisplay_ = makeDataChannel(*this, "tivo.Display",
                                 core::ChannelConfig::Type::Unicast,
                                 256 * 1024);
    if (site().isHost()) {
        // Software decoding drags frame buffers through the host L2.
        hostFrameBuffer_ = site().machine().os().allocRegion(
            static_cast<std::size_t>(env_->mpeg.width) *
            env_->mpeg.height * 4);
    }
    return Status::success();
}

void
DecoderOffcode::stop()
{
    assembler_ = StreamAssembler();
    decoder_.reset();
}

Bytes
DecoderOffcode::snapshotState() const
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(framesDecoded_);
    writer.writeU64(decodeErrors_);
    return out;
}

void
DecoderOffcode::restoreState(const Bytes &snapshot)
{
    ByteReader reader(snapshot);
    auto decoded = reader.readU64();
    auto errors = reader.readU64();
    if (!decoded || !errors)
        return;
    framesDecoded_ = decoded.value();
    decodeErrors_ = errors.value();
    // The assembler and GOP state restart cold; decode resynchronizes
    // on the next I frame exactly as it does after corruption.
}

void
DecoderOffcode::onData(const Payload &payload, core::ChannelHandle from)
{
    (void)from;
    assembler_.feed(payload);

    while (true) {
        auto encoded = assembler_.nextFrame();
        if (!encoded)
            break; // incomplete — wait for more stream bytes

        if (!decoder_.decode(encoded.value())) {
            // Mid-GOP join or corruption: resynchronize on the next
            // I frame.
            ++decodeErrors_;
            decoder_.reset();
            continue;
        }

        const RawFrame &frame = decoder_.frame();
        const std::size_t out_bytes = frame.bytes();
        const sim::SimTime started = site().machine().executor().now();
        obs::Span span;
        openStageSpan(span, site(), "Decoder.decode", started);
        sim::SimTime finished;
        if (site().device() == env_->gpu && env_->gpu) {
            finished = env_->gpu->acceleratedDecode(out_bytes);
        } else {
            const auto cycles = static_cast<std::uint64_t>(
                6.0 * static_cast<double>(out_bytes));
            finished = site().run(cycles);
            if (site().isHost())
                site().machine().l2().access(hostFrameBuffer_, out_bytes,
                                             true);
        }
        ++framesDecoded_;
        siteCounter(decodedCounter_, "tivo.frames_decoded", site())
            .increment();
        span.end(finished);

        if (toDisplay_) {
            toDisplay_->write(encodeFrameMessage(frame));
        }
    }
}

// --------------------------------------------------------------------
// DisplayOffcode
// --------------------------------------------------------------------

Payload
encodeFrameMessage(const RawFrame &frame)
{
    PayloadBuilder builder;
    core::beginData(builder, kFrameHeaderBytes + frame.pixels.size());
    ByteWriter writer(builder.buffer());
    writer.writeU32(frame.width);
    writer.writeU32(frame.height);
    writer.writeU32(frame.sequence);
    writer.writeBytes(frame.pixels);
    return builder.seal();
}

Result<FrameView>
parseFrameMessage(const Payload &body)
{
    ByteReader reader(body.data(), body.size());
    auto width = reader.readU32();
    auto height = reader.readU32();
    auto seq = reader.readU32();
    auto pixels = reader.readBytesView();
    if (!width || !height || !seq || !pixels)
        return Error(ErrorCode::ParseError, "bad raw frame");
    FrameView frame;
    frame.width = width.value();
    frame.height = height.value();
    frame.sequence = seq.value();
    frame.pixels = body.slice(kFrameHeaderBytes, pixels.value().size());
    return frame;
}

DisplayOffcode::DisplayOffcode(TivoEnvPtr env)
    : Offcode("tivo.Display"), env_(std::move(env))
{
}

void
DisplayOffcode::onData(const Payload &payload, core::ChannelHandle from)
{
    (void)from;
    auto frame = parseFrameMessage(payload);
    if (!frame) {
        LOG_WARN << "Display: bad frame: " << frame.error().describe();
        return;
    }

    ++framesPresented_;
    boundCounter(presentedCounter_, "tivo.frames_presented").increment();
    const std::uint32_t seq = frame.value().sequence;
    const Payload &pixels = frame.value().pixels;
    const sim::SimTime started = site().machine().executor().now();

    if (env_->gpu && site().device() == env_->gpu) {
        obs::Span span;
        openStageSpan(span, site(), "Display.present", started);
        span.end(site().run(300));
        env_->gpu->presentFrame(pixels);
        if (env_->onFramePresented)
            env_->onFramePresented(seq);
        return;
    }

    // Host fallback: stage the frame and DMA it to the framebuffer.
    if (env_->gpu) {
        obs::Span span;
        openStageSpan(span, site(), "Display.present", started);
        span.end(site().run(1500));
        env_->gpu->dma().start(pixels.size(), [this, pixels, seq]() {
            env_->gpu->presentFrame(pixels);
            if (env_->onFramePresented)
                env_->onFramePresented(seq);
        });
    } else if (env_->onFramePresented) {
        env_->onFramePresented(seq);
    }
}

// --------------------------------------------------------------------
// FileOffcode
// --------------------------------------------------------------------

FileOffcode::FileOffcode(TivoEnvPtr env, std::string bindname)
    : Offcode(std::move(bindname)), env_(std::move(env))
{
    registerMethod("Read",
                   [this](const Bytes &args) { return readMethod(args); });
    registerMethod("Size",
                   [this](const Bytes &args) { return sizeMethod(args); });
}

Status
FileOffcode::start()
{
    return Status::success();
}

std::uint64_t
FileOffcode::bytesStored() const
{
    return segments_.empty()
               ? 0
               : (segments_.size() - 1) * kSegmentBytes +
                     segments_.back().size();
}

void
FileOffcode::append(std::span<const std::uint8_t> data)
{
    while (!data.empty()) {
        if (segments_.empty() || segments_.back().size() == kSegmentBytes) {
            segments_.emplace_back();
            segments_.back().reserve(kSegmentBytes);
        }
        Bytes &segment = segments_.back();
        const std::size_t n =
            std::min(data.size(), kSegmentBytes - segment.size());
        segment.insert(segment.end(), data.begin(), data.begin() + n);
        data = data.subspan(n);
    }
}

Bytes
FileOffcode::copyOut(std::uint64_t offset, std::size_t length) const
{
    Bytes out;
    out.reserve(length);
    while (out.size() < length) {
        const Bytes &segment = segments_[offset / kSegmentBytes];
        const std::size_t at = offset % kSegmentBytes;
        const std::size_t n =
            std::min(length - out.size(), segment.size() - at);
        out.insert(out.end(), segment.data() + at, segment.data() + at + n);
        offset += n;
    }
    return out;
}

void
FileOffcode::onData(const Payload &payload, core::ChannelHandle from)
{
    (void)from;
    // Append to the controller's write-back cache, then flush whole
    // blocks to the backing store asynchronously.
    append(std::span(payload.data(), payload.size()));
    site().run(300 + payload.size() / 8);
    flushBlocks();
}

void
FileOffcode::flushBlocks()
{
    dev::SmartDisk *disk =
        env_->disk && site().device() == env_->disk ? env_->disk : nullptr;
    if (!disk)
        return; // host fallback: the in-memory mirror is the store

    const std::size_t block = disk->diskConfig().blockBytes;
    while (bytesStored() - flushedBytes_ >= block) {
        const std::uint64_t lba = flushedBytes_ / block;
        const Bytes data = copyOut(flushedBytes_, block);
        flushedBytes_ += block;
        disk->writeBlocks(lba, data, [](Status status) {
            if (!status) {
                LOG_WARN << "File: flush failed: "
                         << status.error().describe();
            }
        });
    }
}

Bytes
FileOffcode::snapshotState() const
{
    // The write-back cache *is* the recording; hand the whole store
    // (plus the flush cursor) to the successor so replay after a
    // controller restart serves identical bytes. The layout is
    // writeU64(flushed) + writeBytes(recording), written a segment at
    // a time.
    const std::uint64_t size = bytesStored();
    Bytes out;
    out.reserve(8 + 4 + size);
    ByteWriter writer(out);
    writer.writeU64(flushedBytes_);
    writer.writeU32(static_cast<std::uint32_t>(size));
    for (const Bytes &segment : segments_)
        out.insert(out.end(), segment.begin(), segment.end());
    return out;
}

void
FileOffcode::restoreState(const Bytes &snapshot)
{
    ByteReader reader(snapshot);
    auto flushed = reader.readU64();
    auto content = reader.readBytesView();
    if (!flushed || !content)
        return;
    flushedBytes_ = flushed.value();
    segments_.clear();
    append(content.value());
}

Result<Bytes>
FileOffcode::readMethod(const Bytes &args)
{
    ByteReader reader(args);
    auto offset = reader.readU64();
    auto length = reader.readU32();
    if (!offset || !length)
        return Error(ErrorCode::InvalidArgument, "expected offset+length");

    site().run(400 + length.value() / 8);

    const std::uint64_t size = bytesStored();
    if (offset.value() >= size)
        return Bytes{}; // EOF
    const std::uint64_t end =
        std::min<std::uint64_t>(offset.value() + length.value(), size);
    return copyOut(offset.value(), end - offset.value());
}

Result<Bytes>
FileOffcode::sizeMethod(const Bytes &)
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(bytesStored());
    return out;
}

// --------------------------------------------------------------------
// GuiOffcode
// --------------------------------------------------------------------

GuiOffcode::GuiOffcode(TivoEnvPtr env)
    : Offcode("tivo.Gui"), env_(std::move(env))
{
}

Status
GuiOffcode::requestReplay()
{
    auto oob = runtime().oobChannelOf("tivo.StreamerDisk");
    if (!oob)
        return Status(oob.error());
    const std::string command = "replay";
    return oob.value()->write(core::encodeManagement(
        Bytes(command.begin(), command.end())));
}

Status
GuiOffcode::requestStopReplay()
{
    auto oob = runtime().oobChannelOf("tivo.StreamerDisk");
    if (!oob)
        return Status(oob.error());
    const std::string command = "stop-replay";
    return oob.value()->write(core::encodeManagement(
        Bytes(command.begin(), command.end())));
}

// --------------------------------------------------------------------
// ServerFileOffcode
// --------------------------------------------------------------------

ServerFileOffcode::ServerFileOffcode(TivoEnvPtr env)
    : Offcode("tivo.server.File"), env_(std::move(env))
{
}

Status
ServerFileOffcode::start()
{
    if (!env_->network || env_->nasNode == net::kInvalidNode)
        return Status(ErrorCode::NetworkUnreachable,
                      "server File needs a NAS");

    // The NFS endpoint lives wherever this Offcode runs: on the NIC
    // when offloaded (the firmware speaks NFS directly), on the host
    // node otherwise.
    const net::NodeId node = env_->nic ? env_->nic->nodeId()
                                       : env_->peerNode;
    nfs_ = std::make_unique<net::NfsClient>(*env_->network, node,
                                            env_->nasNode,
                                            /*reply_port=*/33060);

    nfs_->getSize(env_->movieFile, [this](Result<std::uint64_t> size) {
        if (!size) {
            LOG_ERROR << "server File: movie missing: "
                      << size.error().describe();
            return;
        }
        fileSize_ = size.value();
        pump();
    });
    return Status::success();
}

void
ServerFileOffcode::stop()
{
    stopped_ = true;
}

void
ServerFileOffcode::onChannelConnected(core::ChannelHandle channel)
{
    // The streamer's pull channel (the OOB channel is Copying-mode;
    // data channels are ZeroCopy).
    if (channel.channel->config().buffering ==
        core::ChannelConfig::Buffering::ZeroCopy)
        consumer_ = channel;
}

void
ServerFileOffcode::onManagement(const Payload &payload,
                                core::ChannelHandle from)
{
    ByteReader reader(payload.data(), payload.size());
    auto command = reader.readString();
    auto count = reader.readU32();
    if (!command || command.value() != "more" || !count)
        return;
    if (from.valid())
        consumer_ = from;
    credits_ += count.value();
    pump();
}

void
ServerFileOffcode::pump()
{
    if (stopped_ || fileSize_ == 0 || !consumer_.valid())
        return;
    while (credits_ > 0 && inFlight_ < env_->prefetchWindow) {
        --credits_;
        ++inFlight_;
        const std::uint64_t offset = fileOffset_ % fileSize_;
        fileOffset_ += env_->chunkBytes;
        nfs_->read(env_->movieFile, offset,
                   static_cast<std::uint32_t>(env_->chunkBytes),
                   [this](Result<Bytes> data) {
                       if (inFlight_ > 0)
                           --inFlight_;
                       if (stopped_)
                           return;
                       if (!data) {
                           LOG_WARN << "server File: read failed: "
                                    << data.error().describe();
                           return;
                       }
                       ++chunksServed_;
                       site().run(500);
                       consumer_.write(core::encodeData(data.value()));
                       pump();
                   });
    }
}

// --------------------------------------------------------------------
// ServerBroadcastOffcode
// --------------------------------------------------------------------

ServerBroadcastOffcode::ServerBroadcastOffcode(TivoEnvPtr env)
    : Offcode("tivo.server.Broadcast"), env_(std::move(env))
{
}

Bytes
ServerBroadcastOffcode::snapshotState() const
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(seq_);
    writer.writeU64(packetsSent_);
    return out;
}

void
ServerBroadcastOffcode::restoreState(const Bytes &snapshot)
{
    ByteReader reader(snapshot);
    auto seq = reader.readU64();
    auto sent = reader.readU64();
    if (!seq || !sent)
        return;
    seq_ = seq.value();
    packetsSent_ = sent.value();
}

void
ServerBroadcastOffcode::onData(const Payload &payload,
                               core::ChannelHandle from)
{
    (void)from;
    if (!env_->nic || env_->peerNode == net::kInvalidNode)
        return;

    net::Packet packet;
    packet.dst = env_->peerNode;
    packet.srcPort = env_->videoPort;
    packet.dstPort = env_->videoPort;
    packet.seq = seq_++;
    packet.payload = payload;

    if (site().device() == env_->nic) {
        env_->nic->sendFromDevice(std::move(packet));
    } else {
        hw::OsKernel &os = site().machine().os();
        os.syscall();
        const hw::Addr staging = os.allocRegion(payload.size());
        os.copyBytes(staging, staging + payload.size(), payload.size());
        env_->nic->sendFromHost(std::move(packet));
    }
    ++packetsSent_;
}

// --------------------------------------------------------------------
// ServerStreamerOffcode
// --------------------------------------------------------------------

ServerStreamerOffcode::ServerStreamerOffcode(TivoEnvPtr env)
    : Offcode("tivo.server.Streamer"), env_(std::move(env))
{
}

Status
ServerStreamerOffcode::start()
{
    fromFile_ = makeDataChannel(*this, "tivo.server.File",
                                core::ChannelConfig::Type::Unicast,
                                8 * 1024);
    toBroadcast_ = makeDataChannel(*this, "tivo.server.Broadcast",
                                   core::ChannelConfig::Type::Unicast,
                                   8 * 1024);
    if (!fromFile_ || !toBroadcast_)
        return Status(ErrorCode::ChannelNotConnected,
                      "server streamer peers missing");

    // File pushes chunks back on our creator endpoint.
    fromFile_->installCallHandler(
        [this](const Payload &message, std::size_t) {
            auto payload = core::decodeData(message);
            if (payload)
                buffer_.push_back(std::move(payload).value());
        });

    // Prime the prefetch window, then run the pacing loop.
    fromFile_->write(core::encodeManagement(encodeCredits(
        static_cast<std::uint32_t>(env_->prefetchWindow))));
    site().timerAfter(env_->sendPeriod, [this]() { tick(); });
    return Status::success();
}

void
ServerStreamerOffcode::stop()
{
    stopped_ = true;
}

void
ServerStreamerOffcode::tick()
{
    if (stopped_)
        return;

    if (buffer_.empty()) {
        ++underruns_;
        boundCounter(underrunsCounter_, "tivo.server.underruns").increment();
    } else {
        Payload chunk = std::move(buffer_.front());
        buffer_.pop_front();
        const sim::SimTime started = site().machine().executor().now();
        // Ticks fire from a timer with no active context, so this
        // span is the root of each streamed chunk's trace.
        obs::Span span;
        openStageSpan(span, site(), "server.Streamer.tick", started);
        span.end(site().run(kDeviceForwardCycles));
        toBroadcast_->write(core::encodeData(chunk));
        ++chunksSent_;
        boundCounter(sentCounter_, "tivo.server.chunks_sent").increment();
        // Return the consumed credit so File stays one window ahead.
        fromFile_->write(core::encodeManagement(encodeCredits(1)));
    }
    site().timerAfter(env_->sendPeriod, [this]() { tick(); });
}

// --------------------------------------------------------------------
// Registration
// --------------------------------------------------------------------

namespace {

std::string
clientGuiOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.Gui</bindname>
    <interface name="IGui">
      <method name="Play"/><method name="Pause"/><method name="Replay"/>
    </interface>
  </package>
  <sw-env>
    <import><bindname>tivo.StreamerNet</bindname>
      <reference type="Link" pri="0"/></import>
    <import><bindname>tivo.StreamerDisk</bindname>
      <reference type="Link" pri="0"/></import>
  </sw-env>
  <targets><host-fallback/></targets>
</offcode>)";
}

std::string
clientStreamerNetOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.StreamerNet</bindname>
    <interface name="IStreamer"><method name="OnPacket"/></interface>
  </package>
  <sw-env>
    <import><bindname>tivo.Decoder</bindname>
      <reference type="Gang" pri="1"/></import>
    <import><bindname>tivo.StreamerDisk</bindname>
      <reference type="Gang" pri="1"/></import>
    <requires memory="131072">
      <capability name="mac-ethernet"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name>
      <bus>pci</bus><mac>ethernet</mac></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

std::string
clientStreamerDiskOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.StreamerDisk</bindname>
    <interface name="IStreamer"><method name="Replay"/></interface>
  </package>
  <sw-env>
    <import><bindname>tivo.File</bindname>
      <reference type="Pull" pri="2"/></import>
    <requires memory="131072"/>
  </sw-env>
  <targets>
    <device-class id="0x0002"><name>Storage Controller</name>
      <bus>pci</bus></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

std::string
clientDecoderOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.Decoder</bindname>
    <interface name="IDecoder"><method name="Decode"/></interface>
  </package>
  <sw-env>
    <import><bindname>tivo.Display</bindname>
      <reference type="Pull" pri="2"/></import>
    <requires memory="262144"/>
  </sw-env>
  <targets>
    <device-class id="0x0003"><name>Graphics Adapter</name></device-class>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.3"/>
</offcode>)";
}

std::string
clientDisplayOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.Display</bindname>
    <interface name="IDisplay"><method name="Present"/></interface>
  </package>
  <sw-env>
    <requires memory="262144">
      <capability name="framebuffer"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0003"><name>Graphics Adapter</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.3"/>
</offcode>)";
}

std::string
clientFileOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.File</bindname>
    <interface name="IFile">
      <method name="Read"/><method name="Size"/>
    </interface>
  </package>
  <sw-env>
    <requires memory="524288">
      <capability name="block-store"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0002"><name>Storage Controller</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

std::string
serverStreamerOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.server.Streamer</bindname>
    <interface name="IServerStreamer"><method name="Start"/></interface>
  </package>
  <sw-env>
    <import><bindname>tivo.server.File</bindname>
      <reference type="Pull" pri="2"/></import>
    <import><bindname>tivo.server.Broadcast</bindname>
      <reference type="Pull" pri="2"/></import>
    <requires memory="131072"/>
  </sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

std::string
serverFileOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.server.File</bindname>
    <interface name="IFile"><method name="Read"/></interface>
  </package>
  <sw-env>
    <requires memory="262144">
      <capability name="mac-ethernet"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

std::string
serverBroadcastOdf()
{
    return R"(<offcode>
  <package>
    <bindname>tivo.server.Broadcast</bindname>
    <interface name="IBroadcast"><method name="Send"/></interface>
  </package>
  <sw-env>
    <requires memory="131072">
      <capability name="mac-ethernet"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.2"/>
</offcode>)";
}

} // namespace

Status
registerTivoOffcodes(core::Runtime &runtime, TivoEnvPtr env, TivoRole role)
{
    core::OffcodeDepot &depot = runtime.depot();
    Status status = Status::success();

    auto reg = [&](const std::string &xml,
                   std::function<std::unique_ptr<core::Offcode>()> factory,
                   std::size_t image) {
        if (!status)
            return;
        status = depot.registerOffcode(xml, std::move(factory), image);
    };

    if (role == TivoRole::Client) {
        reg(clientGuiOdf(),
            [env]() { return std::make_unique<GuiOffcode>(env); }, 24576);
        reg(clientStreamerNetOdf(),
            [env]() { return std::make_unique<StreamerNetOffcode>(env); },
            49152);
        reg(clientStreamerDiskOdf(),
            [env]() { return std::make_unique<StreamerDiskOffcode>(env); },
            49152);
        reg(clientDecoderOdf(),
            [env]() { return std::make_unique<DecoderOffcode>(env); },
            98304);
        reg(clientDisplayOdf(),
            [env]() { return std::make_unique<DisplayOffcode>(env); },
            32768);
        reg(clientFileOdf(),
            [env]() {
                return std::make_unique<FileOffcode>(env, "tivo.File");
            },
            65536);
    } else {
        reg(serverStreamerOdf(),
            [env]() {
                return std::make_unique<ServerStreamerOffcode>(env);
            },
            49152);
        reg(serverFileOdf(),
            [env]() { return std::make_unique<ServerFileOffcode>(env); },
            65536);
        reg(serverBroadcastOdf(),
            [env]() {
                return std::make_unique<ServerBroadcastOffcode>(env);
            },
            32768);
    }
    return status;
}

} // namespace hydra::tivo
