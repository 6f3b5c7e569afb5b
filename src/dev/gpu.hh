/**
 * @file
 * Graphics adapter model: framebuffer plus an accelerated decode
 * path ("the GPU may have specialized MPEG support on board").
 */

#ifndef HYDRA_DEV_GPU_HH
#define HYDRA_DEV_GPU_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hh"
#include "dev/device.hh"

namespace hydra::dev {

/** GPU-specific parameters. */
struct GpuConfig
{
    std::size_t framebufferBytes = 8 * 1024 * 1024;
    /**
     * Decode speedup relative to the host software path: the
     * hardware decode unit retires this many times more work per
     * cycle than a general-purpose core.
     */
    double decodeAccelFactor = 12.0;
    /** Cycles per decoded output byte on the host software path. */
    double softwareDecodeCyclesPerByte = 6.0;
};

/** Programmable graphics adapter. */
class Gpu : public Device
{
  public:
    Gpu(exec::Executor &executor, hw::Bus &host_bus,
        DeviceConfig config = gpuDefaultConfig(), GpuConfig gpu = {});

    static DeviceConfig gpuDefaultConfig();
    static DeviceClassSpec gpuClassSpec();

    const GpuConfig &gpuConfig() const { return gpu_; }

    /**
     * Decode on the on-board unit: charges accelerated firmware
     * cycles for @p output_bytes of decoded data.
     */
    sim::SimTime acceleratedDecode(std::size_t output_bytes);

    /** Write a decoded frame into the framebuffer (display). */
    void presentFrame(std::span<const std::uint8_t> frame);

    std::uint64_t framesPresented() const { return framesPresented_; }
    const Bytes &lastFrame() const { return lastFrame_; }
    const std::vector<sim::SimTime> &presentTimes() const
    {
        return presentTimes_;
    }

  private:
    GpuConfig gpu_;
    std::uint64_t framesPresented_ = 0;
    Bytes lastFrame_;
    std::vector<sim::SimTime> presentTimes_;
};

} // namespace hydra::dev

#endif // HYDRA_DEV_GPU_HH
