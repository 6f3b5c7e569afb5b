#include "odf/xml.hh"

#include <cctype>

#include "common/strings.hh"

namespace hydra::odf {

std::string_view
XmlNode::attr(std::string_view key) const
{
    for (const auto &[name_, value] : attributes)
        if (name_ == key)
            return value;
    return {};
}

const XmlNode *
XmlNode::child(std::string_view child_name) const
{
    for (const auto &node : children)
        if (node->name == child_name)
            return node.get();
    return nullptr;
}

std::vector<const XmlNode *>
XmlNode::childrenNamed(std::string_view child_name) const
{
    std::vector<const XmlNode *> out;
    for (const auto &node : children)
        if (node->name == child_name)
            out.push_back(node.get());
    return out;
}

std::string
XmlNode::childText(std::string_view child_name) const
{
    const XmlNode *node = child(child_name);
    return node ? std::string(trim(node->text)) : std::string();
}

namespace {

/** Recursive-descent XML reader over a string view. */
class Parser
{
  public:
    explicit Parser(std::string_view input) : in_(input) {}

    Result<std::unique_ptr<XmlNode>>
    parseDocument()
    {
        skipProlog();
        auto root = parseElement();
        if (!root)
            return root;
        skipMisc();
        if (!atEnd())
            return fail("trailing content after root element");
        return root;
    }

  private:
    bool atEnd() const { return pos_ >= in_.size(); }
    char peek() const { return atEnd() ? '\0' : in_[pos_]; }

    char
    get()
    {
        const char c = peek();
        ++pos_;
        if (c == '\n')
            ++line_;
        return c;
    }

    bool
    consume(std::string_view token)
    {
        if (in_.substr(pos_, token.size()) != token)
            return false;
        for (std::size_t i = 0; i < token.size(); ++i)
            get();
        return true;
    }

    void
    skipSpace()
    {
        while (!atEnd() &&
               std::isspace(static_cast<unsigned char>(peek())))
            get();
    }

    Error
    makeError(const std::string &what) const
    {
        return Error(ErrorCode::ParseError,
                     "line " + std::to_string(line_) + ": " + what);
    }

    Result<std::unique_ptr<XmlNode>>
    fail(const std::string &what) const
    {
        return makeError(what);
    }

    /** Skip whitespace, comments, PIs, and a doctype before the root. */
    void
    skipProlog()
    {
        while (true) {
            skipSpace();
            if (consume("<?")) {
                while (!atEnd() && !consume("?>"))
                    get();
            } else if (in_.substr(pos_, 4) == "<!--") {
                skipComment();
            } else if (consume("<!DOCTYPE")) {
                while (!atEnd() && peek() != '>')
                    get();
                if (!atEnd())
                    get();
            } else {
                return;
            }
        }
    }

    void
    skipMisc()
    {
        while (true) {
            skipSpace();
            if (in_.substr(pos_, 4) == "<!--")
                skipComment();
            else
                return;
        }
    }

    void
    skipComment()
    {
        consume("<!--");
        while (!atEnd() && !consume("-->"))
            get();
    }

    static bool
    isNameChar(char c)
    {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
               c == '_' || c == '.' || c == ':';
    }

    std::string
    parseName()
    {
        std::string name;
        while (!atEnd() && isNameChar(peek()))
            name.push_back(get());
        return name;
    }

    /** Decode the predefined entities in character data. */
    static std::string
    decodeEntities(std::string_view raw)
    {
        std::string out;
        out.reserve(raw.size());
        std::size_t i = 0;
        while (i < raw.size()) {
            if (raw[i] != '&') {
                out.push_back(raw[i++]);
                continue;
            }
            const std::size_t semi = raw.find(';', i);
            if (semi == std::string_view::npos) {
                out.push_back(raw[i++]);
                continue;
            }
            const std::string_view entity = raw.substr(i + 1, semi - i - 1);
            if (entity == "lt")
                out.push_back('<');
            else if (entity == "gt")
                out.push_back('>');
            else if (entity == "amp")
                out.push_back('&');
            else if (entity == "quot")
                out.push_back('"');
            else if (entity == "apos")
                out.push_back('\'');
            else {
                out.append(raw.substr(i, semi - i + 1));
            }
            i = semi + 1;
        }
        return out;
    }

    Result<std::string>
    parseAttrValue()
    {
        if (peek() == '"' || peek() == '\'') {
            const char quote = get();
            std::string value;
            while (!atEnd() && peek() != quote)
                value.push_back(get());
            if (atEnd())
                return makeError("unterminated attribute value");
            get(); // closing quote
            return decodeEntities(value);
        }
        // Unquoted value (paper-style ODF): read until space or '>'.
        std::string value;
        while (!atEnd() && !std::isspace(static_cast<unsigned char>(peek())) &&
               peek() != '>' && peek() != '/')
            value.push_back(get());
        if (value.empty())
            return makeError("empty attribute value");
        return decodeEntities(value);
    }

    Result<std::unique_ptr<XmlNode>>
    parseElement()
    {
        if (!consume("<"))
            return fail("expected '<'");
        auto node = std::make_unique<XmlNode>();
        node->name = parseName();
        if (node->name.empty())
            return fail("expected element name");

        // Attributes.
        while (true) {
            skipSpace();
            if (consume("/>"))
                return node;
            if (consume(">"))
                break;
            const std::string key = parseName();
            if (key.empty())
                return fail("expected attribute name in <" + node->name +
                            ">");
            skipSpace();
            if (!consume("="))
                return fail("expected '=' after attribute '" + key + "'");
            skipSpace();
            auto value = parseAttrValue();
            if (!value)
                return value.error();
            node->attributes.emplace_back(key, std::move(value).value());
        }

        // Content.
        while (true) {
            if (atEnd())
                return fail("unterminated element <" + node->name + ">");
            if (in_.substr(pos_, 4) == "<!--") {
                skipComment();
                continue;
            }
            if (consume("<![CDATA[")) {
                while (!atEnd() && !consume("]]>"))
                    node->text.push_back(get());
                continue;
            }
            if (in_.substr(pos_, 2) == "</") {
                consume("</");
                const std::string closing = parseName();
                skipSpace();
                if (!consume(">"))
                    return fail("malformed closing tag");
                if (closing != node->name)
                    return fail("mismatched closing tag: expected </" +
                                node->name + ">, got </" + closing + ">");
                return node;
            }
            if (peek() == '<') {
                auto childNode = parseElement();
                if (!childNode)
                    return childNode;
                node->children.push_back(std::move(childNode).value());
                continue;
            }
            // Character data.
            std::string raw;
            while (!atEnd() && peek() != '<')
                raw.push_back(get());
            node->text += decodeEntities(raw);
        }
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
};

} // namespace

Result<std::unique_ptr<XmlNode>>
parseXml(std::string_view input)
{
    Parser parser(input);
    return parser.parseDocument();
}

} // namespace hydra::odf
