#include "core/depot.hh"

#include "common/strings.hh"
#include "obs/metrics.hh"

namespace hydra::core {

namespace {

void
noteLookup(bool hit)
{
    obs::counter("depot.lookups",
                 {{"result", hit ? "hit" : "miss"}})
        .increment();
}

} // namespace

Status
OffcodeDepot::registerOffcode(DepotEntry entry)
{
    Status valid = entry.manifest.validate();
    if (!valid)
        return valid;
    if (!entry.factory)
        return Status(ErrorCode::InvalidArgument,
                      entry.manifest.bindname + ": missing factory");

    const std::string bindname = entry.manifest.bindname;
    byName_[bindname] = std::make_unique<DepotEntry>(std::move(entry));
    obs::counter("depot.registered").increment();
    return Status::success();
}

Status
OffcodeDepot::registerOffcode(
    std::string_view odf_xml,
    std::function<std::unique_ptr<Offcode>()> factory,
    std::size_t image_bytes)
{
    auto manifest = odf::OdfDocument::parse(odf_xml);
    if (!manifest)
        return manifest.error();
    DepotEntry entry;
    entry.manifest = std::move(manifest).value();
    entry.factory = std::move(factory);
    entry.imageBytes = image_bytes;
    return registerOffcode(std::move(entry));
}

Result<const DepotEntry *>
OffcodeDepot::findByBindname(const std::string &name) const
{
    auto it = byName_.find(name);
    noteLookup(it != byName_.end());
    if (it == byName_.end())
        return Error(ErrorCode::NotFound,
                     "no depot entry for bindname " + name);
    return it->second.get();
}

Result<const DepotEntry *>
OffcodeDepot::resolve(const std::string &reference) const
{
    auto byName = findByBindname(reference);
    if (byName)
        return byName;

    // Treat the reference as an ODF file path; the parsed manifest's
    // bindname must match a registered factory.
    if (endsWith(reference, ".odf") || reference.find('/') !=
                                           std::string::npos) {
        auto manifest = odf::OdfDocument::loadFile(reference);
        if (!manifest)
            return manifest.error();
        return findByBindname(manifest.value().bindname);
    }
    return byName;
}

} // namespace hydra::core
