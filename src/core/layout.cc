#include "core/layout.hh"

#include <deque>
#include <unordered_map>

#include "common/logging.hh"

namespace hydra::core {

Result<LayoutGraph>
LayoutGraph::build(const OffcodeDepot &depot, const DepotEntry &root)
{
    LayoutGraph graph;
    std::unordered_map<std::string, std::size_t> index;
    std::deque<std::size_t> frontier;

    index[root.manifest.bindname] = 0;
    frontier.push_back(0);
    graph.nodes_.push_back(&root);
    while (!frontier.empty()) {
        const std::size_t from = frontier.front();
        frontier.pop_front();
        const DepotEntry &entry = *graph.nodes_[from];

        for (const odf::ImportSpec &import : entry.manifest.imports) {
            std::size_t to;
            auto found = index.find(import.bindname);
            if (found == index.end()) {
                auto resolved = depot.findByBindname(import.bindname);
                if (!resolved && !import.file.empty())
                    resolved = depot.resolve(import.file);
                if (!resolved)
                    return Error(ErrorCode::NotFound,
                                 entry.manifest.bindname +
                                     " imports unresolved Offcode " +
                                     import.bindname);
                to = graph.nodes_.size();
                graph.nodes_.push_back(resolved.value());
                index[import.bindname] = to;
                frontier.push_back(to);
            } else {
                to = found->second;
            }
            graph.edges_.push_back(
                GraphEdge{from, to, import.constraint, import.priority});
        }
    }
    return graph;
}

LayoutResolver::LayoutResolver(ResolverConfig config)
    : config_(std::move(config))
{
}

Result<ilp::LayoutSpec>
LayoutResolver::buildSpec(const LayoutGraph &graph,
                          const std::vector<SiteInfo> &sites) const
{
    if (sites.empty() || sites[0].device != nullptr)
        return Error(ErrorCode::InvalidArgument,
                     "sites[0] must be the host CPU");

    ilp::LayoutSpec spec;
    spec.numOffcodes = graph.nodes().size();
    spec.numDevices = sites.size();
    spec.objective = config_.objective;

    spec.compatible.assign(spec.numOffcodes,
                           std::vector<bool>(spec.numDevices, false));
    spec.busPrice.assign(spec.numOffcodes, 0.0);
    spec.memoryDemand.assign(spec.numOffcodes, 0.0);
    spec.linkCapacity.assign(spec.numDevices, 1e18);
    spec.memoryLimit.assign(spec.numDevices, 1e18);

    for (std::size_t k = 1; k < sites.size(); ++k) {
        spec.linkCapacity[k] = sites[k].linkCapacityGbps;
        spec.memoryLimit[k] = static_cast<double>(
            sites[k].device->localMemoryFree());
        spec.deviceNames.push_back(sites[k].site->name());
    }
    spec.deviceNames.insert(spec.deviceNames.begin(),
                            sites[0].site->name());

    for (std::size_t n = 0; n < spec.numOffcodes; ++n) {
        const odf::OdfDocument &manifest = graph.nodes()[n]->manifest;
        spec.offcodeNames.push_back(manifest.bindname);
        spec.busPrice[n] = manifest.busPrice;
        spec.memoryDemand[n] = static_cast<double>(
            manifest.requiredMemoryBytes + graph.nodes()[n]->imageBytes);

        spec.compatible[n][0] = manifest.hostFallback;
        for (std::size_t k = 1; k < sites.size(); ++k) {
            dev::Device &device = *sites[k].device;

            // No declared device classes means host-only: offloading
            // requires an explicit <device-class> in the ODF (a
            // wildcard class with id 0 and no fields matches any
            // device).
            bool classOk = false;
            for (const dev::DeviceClassSpec &target : manifest.targets) {
                if (device.deviceClass().satisfies(target)) {
                    classOk = true;
                    break;
                }
            }
            if (!classOk)
                continue;

            bool capsOk = true;
            for (const std::string &cap : manifest.requiredCapabilities) {
                if (!device.hasCapability(cap)) {
                    capsOk = false;
                    break;
                }
            }
            if (!capsOk)
                continue;

            spec.compatible[n][k] = true;
        }
    }

    for (const GraphEdge &edge : graph.edges()) {
        ilp::LayoutEdge out;
        out.a = edge.from;
        out.b = edge.to;
        switch (edge.kind) {
          case odf::ConstraintType::Link:
            continue; // no placement constraint
          case odf::ConstraintType::Pull:
            out.kind = ilp::LayoutConstraint::Pull;
            break;
          case odf::ConstraintType::Gang:
            out.kind = ilp::LayoutConstraint::Gang;
            break;
          case odf::ConstraintType::AsymmetricGang:
            out.kind = ilp::LayoutConstraint::AsymGang;
            break;
        }
        spec.edges.push_back(out);
    }
    return spec;
}

Result<Placement>
LayoutResolver::resolve(const LayoutGraph &graph,
                        const std::vector<SiteInfo> &sites) const
{
    auto spec = buildSpec(graph, sites);
    if (!spec)
        return spec.error();

    Result<ilp::LayoutAssignment> assignment =
        config_.useGreedy ? ilp::greedyLayout(spec.value())
                          : ilp::solveLayout(spec.value(), config_.limits);
    if (!assignment)
        return assignment.error();

    Placement placement;
    placement.objective = assignment.value().objective;
    placement.offloadedCount = assignment.value().offloadedCount();
    placement.site.reserve(graph.nodes().size());
    for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
        const std::size_t device_index = assignment.value().device[n];
        placement.site.push_back(sites[device_index].site);
        LOG_DEBUG << "layout: " << graph.nodes()[n]->manifest.bindname
                  << " -> " << sites[device_index].site->name();
    }
    return placement;
}

} // namespace hydra::core
