/**
 * @file
 * The Offcode Depot (paper Section 4): the local library storing
 * Offcode manifests, their object images, and the factories that
 * instantiate them ("the runtime uses a local library that is used
 * for storing the actual instances (object files) of the
 * Offcodes").
 */

#ifndef HYDRA_CORE_DEPOT_HH
#define HYDRA_CORE_DEPOT_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/offcode.hh"
#include "odf/odf.hh"

namespace hydra::core {

/** A registered Offcode: manifest + instantiation + image metadata. */
struct DepotEntry
{
    odf::OdfDocument manifest;
    /** Factory producing a fresh instance for deployment. */
    std::function<std::unique_ptr<Offcode>()> factory;
    /** Synthetic object-image size (drives load/link cost). */
    std::size_t imageBytes = 32 * 1024;
};

/** Registry of deployable Offcodes, keyed by bindname. */
class OffcodeDepot
{
  public:
    /** Register an Offcode; replaces any previous registration. */
    Status registerOffcode(DepotEntry entry);

    /** Convenience: register with an ODF parsed from XML text. */
    Status registerOffcode(std::string_view odf_xml,
                           std::function<std::unique_ptr<Offcode>()> factory,
                           std::size_t image_bytes = 32 * 1024);

    Result<const DepotEntry *> findByBindname(const std::string &name) const;

    /**
     * Resolve an ODF reference: a registered bindname, or a path to
     * an ODF file on disk (in which case a factory must already be
     * registered under the file's bindname).
     */
    Result<const DepotEntry *> resolve(const std::string &reference) const;

    std::size_t size() const { return byName_.size(); }

  private:
    std::unordered_map<std::string, std::unique_ptr<DepotEntry>> byName_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_DEPOT_HH
