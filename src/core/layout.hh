/**
 * @file
 * Layout Management (paper Sections 3.4 and 4): builds the
 * offloading layout graph from an Offcode's ODF (following imports
 * transitively through the depot) and resolves it to a concrete
 * placement on the machine's devices via the Offload Layout
 * Resolver, which delegates to the Section 5 ILP (or the greedy
 * baseline).
 */

#ifndef HYDRA_CORE_LAYOUT_HH
#define HYDRA_CORE_LAYOUT_HH

#include <string>
#include <vector>

#include "core/depot.hh"
#include "core/site.hh"
#include "ilp/layout.hh"

namespace hydra::core {

/** An edge of the offloading layout graph. */
struct GraphEdge
{
    std::size_t from = 0; ///< importing node
    std::size_t to = 0;   ///< imported node
    odf::ConstraintType kind = odf::ConstraintType::Link;
    int priority = 0;
};

/** The offloading layout graph of one deployment request. */
class LayoutGraph
{
  public:
    /**
     * Build by following the root entry's imports transitively.
     * Every import must resolve in the depot; cycles are permitted
     * (each Offcode appears once).
     */
    static Result<LayoutGraph> build(const OffcodeDepot &depot,
                                     const DepotEntry &root);

    const std::vector<const DepotEntry *> &nodes() const { return nodes_; }
    const std::vector<GraphEdge> &edges() const { return edges_; }

    /** Root node is always index 0. */
    const DepotEntry &root() const { return *nodes_[0]; }

  private:
    std::vector<const DepotEntry *> nodes_;
    std::vector<GraphEdge> edges_;
};

/** One placement candidate visible to the resolver. */
struct SiteInfo
{
    ExecutionSite *site = nullptr;
    /** Device behind the site; nullptr for the host CPU. */
    dev::Device *device = nullptr;
    /** Bus-link capacity toward this site (Gbps). */
    double linkCapacityGbps = 1e9;
};

/** Resolver configuration. */
struct ResolverConfig
{
    ilp::LayoutObjective objective =
        ilp::LayoutObjective::MaximizeOffloading;
    /** Use the greedy baseline instead of the exact ILP. */
    bool useGreedy = false;
    ilp::SolverLimits limits;
};

/** Result of layout resolution. */
struct Placement
{
    /** Chosen site per graph node (parallel to graph.nodes()). */
    std::vector<ExecutionSite *> site;
    double objective = 0.0;
    std::size_t offloadedCount = 0;
};

/** The Offload Layout Resolver. */
class LayoutResolver
{
  public:
    explicit LayoutResolver(ResolverConfig config = {});

    /**
     * Map graph nodes onto sites. sites[0] must be the host. Builds
     * the compatibility matrix from ODF targets, device classes,
     * capabilities, and memory headroom, then optimizes.
     */
    Result<Placement> resolve(const LayoutGraph &graph,
                              const std::vector<SiteInfo> &sites) const;

    /** Expose the ILP spec (for tests and the layout bench). */
    Result<ilp::LayoutSpec>
    buildSpec(const LayoutGraph &graph,
              const std::vector<SiteInfo> &sites) const;

    const ResolverConfig &config() const { return config_; }

  private:
    ResolverConfig config_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_LAYOUT_HH
