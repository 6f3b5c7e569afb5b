/**
 * @file
 * Hierarchical resource management (paper Section 4): "Resources are
 * managed hierarchically to allow for robust clean-up of child
 * resources in the case of a failing parent object."
 *
 * Every deployed Offcode registers as a node under a parent (the
 * root by default); releasing a node
 * releases its whole subtree, children first, running each node's
 * release action exactly once.
 */

#ifndef HYDRA_CORE_RESOURCE_HH
#define HYDRA_CORE_RESOURCE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.hh"

namespace hydra::core {

/** Handle to a managed resource node. */
using ResourceId = std::uint64_t;

constexpr ResourceId kNoResource = 0;

/** Tree of resources with cascading release. */
class ResourceManager
{
  public:
    ResourceManager();

    /** The implicit root every top-level resource hangs off. */
    ResourceId root() const { return rootId_; }

    /**
     * Register a resource under @p parent. @p on_release runs when
     * the node (or any ancestor) is released.
     */
    Result<ResourceId> create(ResourceId parent,
                              std::function<void()> on_release = {});

    /** Release a node and its subtree (children first). */
    Status release(ResourceId id);

    /** Number of live resources (excluding the root). */
    std::size_t activeCount() const { return nodes_.size() - 1; }

    bool exists(ResourceId id) const { return nodes_.count(id) != 0; }

  private:
    struct Node
    {
        ResourceId parent = kNoResource;
        std::function<void()> onRelease;
        std::vector<ResourceId> children;
    };

    void releaseSubtree(ResourceId id);

    std::unordered_map<ResourceId, Node> nodes_;
    ResourceId rootId_ = 1;
    ResourceId nextId_ = 2;
};

} // namespace hydra::core

#endif // HYDRA_CORE_RESOURCE_HH
