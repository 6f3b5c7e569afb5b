/**
 * @file
 * The TiVoPC Offcodes (paper Section 6, Table 1, Figs. 7-8).
 *
 * Client side: Streamer (one instance per device role, as the paper
 * deploys the component at both the NIC and the smart disk), Decoder,
 * Display, File, and the host-resident GUI. Server side: Streamer,
 * Broadcast and File Offcodes that together form the offloaded video
 * server. Every component implements both its offloaded path and a
 * host-CPU fallback, so the same binaries deploy anywhere the layout
 * resolver decides.
 */

#ifndef HYDRA_TIVO_COMPONENTS_HH
#define HYDRA_TIVO_COMPONENTS_HH

#include <deque>
#include <functional>
#include <memory>

#include "core/proxy.hh"
#include "core/runtime.hh"
#include "dev/disk.hh"
#include "dev/gpu.hh"
#include "dev/nic.hh"
#include "net/nfs.hh"
#include "tivo/mpeg.hh"

namespace hydra::tivo {

/** Shared environment every TiVoPC Offcode sees (one per machine). */
struct TivoEnv
{
    MpegConfig mpeg;
    net::Network *network = nullptr;
    net::Port videoPort = 5004;
    std::string movieFile = "movie.mpg";
    net::NodeId nasNode = net::kInvalidNode;
    net::NodeId peerNode = net::kInvalidNode; ///< stream destination

    dev::ProgrammableNic *nic = nullptr;
    dev::SmartDisk *disk = nullptr;
    dev::Gpu *gpu = nullptr;

    /** Streaming parameters (paper: 1 kB every 5 ms). */
    sim::SimTime sendPeriod = sim::milliseconds(5);
    std::size_t chunkBytes = 1024;
    std::size_t prefetchWindow = 32;

    /** Measurement taps. */
    std::function<void(sim::SimTime)> onPacketArrival;
    std::function<void(std::uint32_t)> onFramePresented;
};

using TivoEnvPtr = std::shared_ptr<TivoEnv>;

// --------------------------------------------------------------------
// Client-side Offcodes
// --------------------------------------------------------------------

/** Streamer at the network edge: NIC packets -> Decoder + disk. */
class StreamerNetOffcode : public core::Offcode
{
  public:
    explicit StreamerNetOffcode(TivoEnvPtr env);

    std::uint64_t packetsHandled() const { return packetsHandled_; }

    Bytes snapshotState() const override;
    void restoreState(const Bytes &snapshot) override;

  protected:
    Status start() override;
    void stop() override;

  private:
    void onPacket(const net::Packet &packet);

    TivoEnvPtr env_;
    core::Channel *fanout_ = nullptr; ///< multicast to Decoder + disk
    hw::Addr hostBuffer_ = 0;
    std::uint64_t packetsHandled_ = 0;
    bool portBound_ = false;
    obs::Counter *packetsCounter_ = nullptr; ///< tivo.packets_handled
};

/** Streamer at the storage edge: recording and replay. */
class StreamerDiskOffcode : public core::Offcode
{
  public:
    explicit StreamerDiskOffcode(TivoEnvPtr env);

    void onData(const Payload &payload, core::ChannelHandle from) override;
    void onManagement(const Payload &payload,
                      core::ChannelHandle from) override;

    std::uint64_t chunksRecorded() const { return chunksRecorded_; }
    std::uint64_t chunksReplayed() const { return chunksReplayed_; }
    bool replaying() const { return replaying_; }

    Bytes snapshotState() const override;
    void restoreState(const Bytes &snapshot) override;

  protected:
    Status start() override;
    void stop() override;

  private:
    void replayTick();

    TivoEnvPtr env_;
    core::Channel *toFile_ = nullptr;
    core::Channel *toDecoder_ = nullptr;
    std::unique_ptr<core::Proxy> fileProxy_;
    std::uint64_t chunksRecorded_ = 0;
    std::uint64_t chunksReplayed_ = 0;
    std::uint64_t replayOffset_ = 0;
    bool replaying_ = false;
    bool stopped_ = false;
    /** A predecessor was restarted mid-replay; resume at start(). */
    bool resumeReplay_ = false;
    obs::Counter *recordedCounter_ = nullptr; ///< tivo.chunks_recorded
    obs::Counter *replayedCounter_ = nullptr; ///< tivo.chunks_replayed
};

/** MPEG decoder: payload chunks -> raw frames. */
class DecoderOffcode : public core::Offcode
{
  public:
    explicit DecoderOffcode(TivoEnvPtr env);

    void onData(const Payload &payload, core::ChannelHandle from) override;

    std::uint64_t framesDecoded() const { return framesDecoded_; }
    std::uint64_t decodeErrors() const { return decodeErrors_; }

    Bytes snapshotState() const override;
    void restoreState(const Bytes &snapshot) override;

  protected:
    Status start() override;
    void stop() override;

  private:
    TivoEnvPtr env_;
    core::Channel *toDisplay_ = nullptr;
    StreamAssembler assembler_;
    MpegDecoder decoder_;
    hw::Addr hostFrameBuffer_ = 0;
    std::uint64_t framesDecoded_ = 0;
    std::uint64_t decodeErrors_ = 0;
    obs::Counter *decodedCounter_ = nullptr; ///< tivo.frames_decoded
};

/**
 * Decoder -> Display message: a framed Data message whose body is
 * [width u32][height u32][sequence u32][pixel count u32][pixels].
 * Built in one pooled buffer, with no intermediate copy of the frame.
 */
Payload encodeFrameMessage(const RawFrame &frame);

/** A Decoder -> Display message body parsed in place. */
struct FrameView
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint32_t sequence = 0;
    Payload pixels; ///< zero-copy slice of the message
};

/** Parse the body (after decodeData) of a Decoder -> Display message. */
Result<FrameView> parseFrameMessage(const Payload &body);

/** Display: raw frames -> GPU framebuffer. */
class DisplayOffcode : public core::Offcode
{
  public:
    explicit DisplayOffcode(TivoEnvPtr env);

    void onData(const Payload &payload, core::ChannelHandle from) override;

    std::uint64_t framesPresented() const { return framesPresented_; }

  private:
    TivoEnvPtr env_;
    std::uint64_t framesPresented_ = 0;
    obs::Counter *presentedCounter_ = nullptr; ///< tivo.frames_presented
};

/**
 * File: record/replay store on the smart disk (or host memory). The
 * recording lives in fixed-size segments, so an append never moves,
 * regrows or zero-fills what is already stored.
 */
class FileOffcode : public core::Offcode
{
  public:
    /** Bytes per recording segment (a flush block may straddle two). */
    static constexpr std::size_t kSegmentBytes = 64 * 1024;

    explicit FileOffcode(TivoEnvPtr env, std::string bindname);

    void onData(const Payload &payload, core::ChannelHandle from) override;

    std::uint64_t bytesStored() const;

    Bytes snapshotState() const override;
    void restoreState(const Bytes &snapshot) override;

  protected:
    Status start() override;

  private:
    Result<Bytes> readMethod(const Bytes &args);
    Result<Bytes> sizeMethod(const Bytes &args);
    void flushBlocks();
    void append(std::span<const std::uint8_t> data);
    /** The @p length stored bytes from @p offset on. */
    Bytes copyOut(std::uint64_t offset, std::size_t length) const;

    TivoEnvPtr env_;
    /**
     * Controller write-back cache mirroring the backing store: every
     * segment but the last holds exactly kSegmentBytes.
     */
    std::vector<Bytes> segments_;
    std::uint64_t flushedBytes_ = 0;
};

/** GUI: host-side controls (play / pause / replay). */
class GuiOffcode : public core::Offcode
{
  public:
    explicit GuiOffcode(TivoEnvPtr env);

    /** Ask the disk-side Streamer to replay the recorded stream. */
    Status requestReplay();
    Status requestStopReplay();

  private:
    TivoEnvPtr env_;
};

// --------------------------------------------------------------------
// Server-side Offcodes
// --------------------------------------------------------------------

/** Server File: prefetching NAS reader (double-buffered). */
class ServerFileOffcode : public core::Offcode
{
  public:
    explicit ServerFileOffcode(TivoEnvPtr env);

    std::uint64_t chunksServed() const { return chunksServed_; }

  protected:
    Status start() override;
    void stop() override;

  public:
    void onChannelConnected(core::ChannelHandle channel) override;
    void onManagement(const Payload &payload,
                      core::ChannelHandle from) override;

  private:
    void pump();

    TivoEnvPtr env_;
    std::unique_ptr<net::NfsClient> nfs_;
    core::ChannelHandle consumer_;
    std::uint64_t fileOffset_ = 0;
    std::uint64_t fileSize_ = 0;
    std::size_t inFlight_ = 0;
    std::size_t credits_ = 0;
    std::uint64_t chunksServed_ = 0;
    bool stopped_ = false;
};

/** Server Broadcast: UDP transmit of stream chunks. */
class ServerBroadcastOffcode : public core::Offcode
{
  public:
    explicit ServerBroadcastOffcode(TivoEnvPtr env);

    void onData(const Payload &payload, core::ChannelHandle from) override;

    std::uint64_t packetsSent() const { return packetsSent_; }

    Bytes snapshotState() const override;
    void restoreState(const Bytes &snapshot) override;

  private:
    TivoEnvPtr env_;
    std::uint64_t seq_ = 0;
    std::uint64_t packetsSent_ = 0;
};

/** Server Streamer: the 5 ms pacing loop. */
class ServerStreamerOffcode : public core::Offcode
{
  public:
    explicit ServerStreamerOffcode(TivoEnvPtr env);

    std::uint64_t chunksSent() const { return chunksSent_; }
    std::uint64_t underruns() const { return underruns_; }

  protected:
    Status start() override;
    void stop() override;

  private:
    void tick();

    TivoEnvPtr env_;
    core::Channel *fromFile_ = nullptr;
    core::Channel *toBroadcast_ = nullptr;
    std::deque<Payload> buffer_;
    std::uint64_t chunksSent_ = 0;
    std::uint64_t underruns_ = 0;
    bool stopped_ = false;
    obs::Counter *sentCounter_ = nullptr;      ///< tivo.server.chunks_sent
    obs::Counter *underrunsCounter_ = nullptr; ///< tivo.server.underruns
};

// --------------------------------------------------------------------
// Registration
// --------------------------------------------------------------------

/** Which side's component set to register. */
enum class TivoRole { Client, Server };

/**
 * Register the role's Offcodes (ODF manifests + factories) with a
 * runtime's depot. Client root: "tivo.Gui"; server root:
 * "tivo.server.Streamer".
 */
Status registerTivoOffcodes(core::Runtime &runtime, TivoEnvPtr env,
                            TivoRole role);

} // namespace hydra::tivo

#endif // HYDRA_TIVO_COMPONENTS_HH
