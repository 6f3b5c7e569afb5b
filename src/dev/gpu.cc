#include "dev/gpu.hh"

namespace hydra::dev {

DeviceConfig
Gpu::gpuDefaultConfig()
{
    DeviceConfig config;
    config.name = "gpu";
    config.firmwareGhz = 0.5;
    config.localMemoryBytes = 64 * 1024 * 1024;
    return config;
}

DeviceClassSpec
Gpu::gpuClassSpec()
{
    DeviceClassSpec spec;
    spec.id = 0x0003;
    spec.name = "Graphics Adapter";
    spec.bus = "pci";
    return spec;
}

Gpu::Gpu(exec::Executor &executor, hw::Bus &host_bus, DeviceConfig config,
         GpuConfig gpu)
    : Device(executor, host_bus, std::move(config), gpuClassSpec()),
      gpu_(gpu)
{
    addCapability("framebuffer");
    addCapability("mpeg-decode");
    addCapability("programmable");
}

sim::SimTime
Gpu::acceleratedDecode(std::size_t output_bytes)
{
    const double cycles = gpu_.softwareDecodeCyclesPerByte *
                          static_cast<double>(output_bytes) /
                          gpu_.decodeAccelFactor;
    return runFirmware(static_cast<std::uint64_t>(cycles) + 1);
}

void
Gpu::presentFrame(std::span<const std::uint8_t> frame)
{
    ++framesPresented_;
    lastFrame_.assign(frame.begin(), frame.end());
    presentTimes_.push_back(exec_.now());
}

} // namespace hydra::dev
