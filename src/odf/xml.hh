/**
 * @file
 * A small XML parser sufficient for Offcode Description Files.
 *
 * Supports elements, attributes (quoted or — as in the paper's
 * Fig. 4 sample ODF — unquoted), text content, comments, CDATA,
 * processing instructions, and the five predefined entities. Parse
 * errors carry a line number.
 */

#ifndef HYDRA_ODF_XML_HH
#define HYDRA_ODF_XML_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hh"

namespace hydra::odf {

/** One parsed XML element. */
class XmlNode
{
  public:
    std::string name;
    std::vector<std::pair<std::string, std::string>> attributes;
    std::vector<std::unique_ptr<XmlNode>> children;
    /** Concatenated character data directly inside this element. */
    std::string text;

    /** Attribute value, or empty string when absent. */
    std::string_view attr(std::string_view key) const;

    /** First child with the given element name, or nullptr. */
    const XmlNode *child(std::string_view child_name) const;

    /** All children with the given element name. */
    std::vector<const XmlNode *>
    childrenNamed(std::string_view child_name) const;

    /** Trimmed text of a named child ("" when the child is absent). */
    std::string childText(std::string_view child_name) const;
};

/** Parse a complete document; returns the root element. */
Result<std::unique_ptr<XmlNode>> parseXml(std::string_view input);

} // namespace hydra::odf

#endif // HYDRA_ODF_XML_HH
