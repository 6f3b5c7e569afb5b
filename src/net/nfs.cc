#include "net/nfs.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra::net {

namespace {

/** Request wire format shared by client encoder and server decoder. */
struct Request
{
    NfsOp op = NfsOp::Lookup;
    std::uint64_t xid = 0;
    std::string file;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    /** Write data: the caller's bytes, or a view into the request. */
    std::span<const std::uint8_t> data;
};

Payload
encodeRequest(const Request &req)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU8(static_cast<std::uint8_t>(req.op));
    writer.writeU64(req.xid);
    writer.writeString(req.file);
    writer.writeU64(req.offset);
    writer.writeU32(req.length);
    writer.writeBytes(req.data);
    return builder.seal();
}

/** Decode @p wire; out.data views @p wire, which must outlive it. */
bool
decodeRequest(const Payload &wire, Request &out)
{
    ByteReader reader(wire.data(), wire.size());
    auto op = reader.readU8();
    auto xid = reader.readU64();
    auto file = reader.readString();
    auto offset = reader.readU64();
    auto length = reader.readU32();
    auto data = reader.readBytesView();
    if (!op || !xid || !file || !offset || !length || !data)
        return false;
    out.op = static_cast<NfsOp>(op.value());
    out.xid = xid.value();
    out.file = std::move(file).value();
    out.offset = offset.value();
    out.length = length.value();
    out.data = data.value();
    return true;
}

} // namespace

NfsServer::NfsServer(Network &network, NodeId node)
    : net_(network), node_(node)
{
    Status bound = net_.bind(node_, kNfsPort,
                             [this](const Packet &p) { onRequest(p); });
    if (!bound) {
        LOG_ERROR << "NfsServer: bind failed: " << bound.error().describe();
    }
}

NfsServer::~NfsServer()
{
    net_.unbind(node_, kNfsPort);
}

Bytes &
NfsServer::File::writable()
{
    if (shared) {
        owned = *shared;
        shared.reset();
    }
    return owned;
}

void
NfsServer::putFile(const std::string &name,
                   std::shared_ptr<const Bytes> content)
{
    files_[name] = File{std::move(content), {}};
}

Result<Bytes>
NfsServer::fileContent(const std::string &name) const
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Error(ErrorCode::NotFound, name);
    return it->second.bytes();
}

bool
NfsServer::hasFile(const std::string &name) const
{
    return files_.count(name) != 0;
}

void
NfsServer::onRequest(const Packet &request)
{
    Request req;
    if (!decodeRequest(request.payload, req)) {
        LOG_WARN << "NfsServer: malformed request dropped";
        return;
    }
    ++requestsServed_;

    // The reply carries `result` (a view into the file for a Read, or
    // a scalar encoded into `scalar`) or, on failure, `error`.
    const char *error = nullptr;
    std::span<const std::uint8_t> result;
    Bytes scalar;
    ByteWriter scalarWriter(scalar);

    auto it = files_.find(req.file);
    switch (req.op) {
      case NfsOp::Lookup:
        if (it == files_.end())
            error = "no such file";
        break;
      case NfsOp::GetSize:
        if (it == files_.end()) {
            error = "no such file";
        } else {
            scalarWriter.writeU64(it->second.bytes().size());
            result = scalar;
        }
        break;
      case NfsOp::Read:
        if (it == files_.end()) {
            error = "no such file";
        } else {
            const Bytes &content = it->second.bytes();
            const std::uint64_t start =
                std::min<std::uint64_t>(req.offset, content.size());
            const std::uint64_t end =
                std::min<std::uint64_t>(start + req.length, content.size());
            result = std::span(content).subspan(start, end - start);
        }
        break;
      case NfsOp::Write: {
        // The end offset is wire data: bound it before resizing.
        if (req.offset > kNfsMaxFileBytes ||
            req.data.size() > kNfsMaxFileBytes - req.offset) {
            error = "write beyond maximum file size";
            break;
        }
        // Creates the file on its first write.
        Bytes &content = files_[req.file].writable();
        if (req.offset == content.size()) {
            content.insert(content.end(), req.data.begin(), req.data.end());
        } else {
            // Overwrite, or a write past the end: the gap reads zeros.
            const std::uint64_t end = req.offset + req.data.size();
            if (content.size() < end)
                content.resize(end);
            std::copy(req.data.begin(), req.data.end(),
                      content.begin() +
                          static_cast<std::ptrdiff_t>(req.offset));
        }
        scalarWriter.writeU32(static_cast<std::uint32_t>(req.data.size()));
        result = scalar;
        break;
      }
      default:
        error = "bad op";
        break;
    }

    // Reply: [status u8][xid u64][request op u8], then the
    // length-prefixed result or the error string.
    const auto reply = [&](const char *failure) {
        PayloadBuilder builder;
        ByteWriter writer(builder.buffer());
        writer.writeU8(static_cast<std::uint8_t>(
            failure ? NfsOp::ReplyError : NfsOp::ReplyOk));
        writer.writeU64(req.xid);
        writer.writeU8(static_cast<std::uint8_t>(req.op));
        if (failure)
            writer.writeString(failure);
        else
            writer.writeBytes(result);

        Packet packet;
        packet.src = node_;
        packet.dst = request.src;
        packet.srcPort = kNfsPort;
        packet.dstPort = request.srcPort;
        packet.payload = builder.seal();
        return net_.send(std::move(packet));
    };
    // A result too large for one packet goes back as an error, so
    // the client is not left waiting for a reply that never comes.
    const Status sent = reply(error);
    if (!sent && !error && sent.error().code == ErrorCode::MessageTooLarge)
        reply("reply too large");
}

NfsClient::NfsClient(Network &network, NodeId node, NodeId server,
                     Port reply_port)
    : net_(network), node_(node), server_(server), replyPort_(reply_port)
{
    Status bound = net_.bind(node_, replyPort_,
                             [this](const Packet &p) { onReply(p); });
    if (!bound) {
        LOG_ERROR << "NfsClient: bind failed: " << bound.error().describe();
    }
}

NfsClient::~NfsClient()
{
    net_.unbind(node_, replyPort_);
}

void
NfsClient::sendRequest(Pending pending, const std::string &file,
                       std::uint64_t offset, std::uint32_t length,
                       std::span<const std::uint8_t> data)
{
    Request req;
    req.op = pending.op;
    req.xid = nextXid_++;
    req.file = file;
    req.offset = offset;
    req.length = length;
    req.data = data;

    Packet packet;
    packet.src = node_;
    packet.dst = server_;
    packet.srcPort = replyPort_;
    packet.dstPort = kNfsPort;
    packet.payload = encodeRequest(req);
    Status sent = net_.send(std::move(packet));
    if (sent)
        pending_[req.xid] = std::move(pending);
    else
        fail(pending, sent.error());
}

void
NfsClient::fail(Pending &pending, const Error &error)
{
    switch (pending.op) {
      case NfsOp::Read:
        pending.onRead(error);
        break;
      case NfsOp::Write:
        pending.onWrite(Status(error));
        break;
      case NfsOp::GetSize:
        pending.onSize(error);
        break;
      default:
        break;
    }
}

void
NfsClient::read(const std::string &file, std::uint64_t offset,
                std::uint32_t length, ReadCallback done)
{
    Pending pending;
    pending.op = NfsOp::Read;
    pending.onRead = std::move(done);
    sendRequest(std::move(pending), file, offset, length);
}

void
NfsClient::write(const std::string &file, std::uint64_t offset,
                 const Bytes &data, WriteCallback done)
{
    Pending pending;
    pending.op = NfsOp::Write;
    pending.onWrite = std::move(done);
    sendRequest(std::move(pending), file, offset, 0, data);
}

void
NfsClient::getSize(const std::string &file, SizeCallback done)
{
    Pending pending;
    pending.op = NfsOp::GetSize;
    pending.onSize = std::move(done);
    sendRequest(std::move(pending), file, 0, 0);
}

void
NfsClient::onReply(const Packet &reply)
{
    ByteReader reader(reply.payload.data(), reply.payload.size());
    auto status = reader.readU8();
    auto xid = reader.readU64();
    auto orig = reader.readU8();
    if (!status || !xid || !orig) {
        LOG_WARN << "NfsClient: malformed reply dropped";
        return;
    }
    (void)orig;

    auto it = pending_.find(xid.value());
    if (it == pending_.end())
        return; // stale or duplicate reply
    Pending pending = std::move(it->second);
    pending_.erase(it);

    const bool ok =
        static_cast<NfsOp>(status.value()) == NfsOp::ReplyOk;

    if (!ok) {
        auto message = reader.readString();
        fail(pending, Error(ErrorCode::NotFound,
                            message ? message.value() : "nfs error"));
        return;
    }

    auto payload = reader.readBytes();
    if (!payload) {
        LOG_WARN << "NfsClient: truncated reply";
        return;
    }

    switch (pending.op) {
      case NfsOp::Read:
        pending.onRead(std::move(payload).value());
        break;
      case NfsOp::Write:
        pending.onWrite(Status::success());
        break;
      case NfsOp::GetSize: {
        ByteReader inner(payload.value());
        auto size = inner.readU64();
        if (size)
            pending.onSize(size.value());
        else
            pending.onSize(Error(ErrorCode::ParseError, "bad size reply"));
        break;
      }
      default:
        break;
    }
}

} // namespace hydra::net
