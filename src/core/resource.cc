#include "core/resource.hh"

#include <algorithm>

namespace hydra::core {

ResourceManager::ResourceManager()
{
    nodes_[rootId_] = Node{};
}

Result<ResourceId>
ResourceManager::create(ResourceId parent,
                        std::function<void()> on_release)
{
    auto it = nodes_.find(parent);
    if (it == nodes_.end())
        return Error(ErrorCode::NotFound, "parent resource not found");

    const ResourceId id = nextId_++;
    Node node;
    node.parent = parent;
    node.onRelease = std::move(on_release);
    nodes_[id] = std::move(node);
    nodes_[parent].children.push_back(id);
    return id;
}

Status
ResourceManager::release(ResourceId id)
{
    if (id == rootId_)
        return Status(ErrorCode::InvalidArgument,
                      "cannot release the root resource");
    auto it = nodes_.find(id);
    if (it == nodes_.end())
        return Status(ErrorCode::NotFound, "resource not found");

    // Detach from parent first, then tear down the subtree.
    const ResourceId parent = it->second.parent;
    auto pit = nodes_.find(parent);
    if (pit != nodes_.end()) {
        auto &siblings = pit->second.children;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                       siblings.end());
    }
    releaseSubtree(id);
    return Status::success();
}

void
ResourceManager::releaseSubtree(ResourceId id)
{
    auto it = nodes_.find(id);
    if (it == nodes_.end())
        return;

    // Children first, so a failing parent's dependents clean up
    // before the parent's own release action runs.
    const std::vector<ResourceId> children = it->second.children;
    for (ResourceId child : children)
        releaseSubtree(child);

    it = nodes_.find(id); // children callbacks may not touch us, but be safe
    if (it == nodes_.end())
        return;
    auto on_release = std::move(it->second.onRelease);
    nodes_.erase(it);
    if (on_release)
        on_release();
}

} // namespace hydra::core
