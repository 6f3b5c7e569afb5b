#include "core/call.hh"

namespace hydra::core {

namespace {

Result<Call>
deserializeCall(ByteReader reader)
{
    auto kind = reader.readU8();
    if (!kind)
        return kind.error();
    if (static_cast<MessageKind>(kind.value()) != MessageKind::Call)
        return Error(ErrorCode::ParseError, "not a Call message");

    Call call;
    auto target = reader.readU64();
    auto iface = reader.readU64();
    auto method = reader.readString();
    auto args = reader.readBytes();
    auto id = reader.readU64();
    auto expects = reader.readU8();
    if (!target || !iface || !method || !args || !id || !expects)
        return Error(ErrorCode::ParseError, "truncated Call message");

    call.targetOffcode = Guid(target.value());
    call.interfaceGuid = Guid(iface.value());
    call.method = std::move(method).value();
    call.arguments = std::move(args).value();
    call.callId = id.value();
    call.expectsReturn = expects.value() != 0;
    return call;
}

Result<CallReturn>
deserializeReturn(ByteReader reader)
{
    auto kind = reader.readU8();
    if (!kind)
        return kind.error();
    if (static_cast<MessageKind>(kind.value()) != MessageKind::Return)
        return Error(ErrorCode::ParseError, "not a Return message");

    CallReturn ret;
    auto id = reader.readU64();
    auto ok = reader.readU8();
    auto value = reader.readBytes();
    auto error = reader.readString();
    if (!id || !ok || !value || !error)
        return Error(ErrorCode::ParseError, "truncated Return message");

    ret.callId = id.value();
    ret.ok = ok.value() != 0;
    ret.value = std::move(value).value();
    ret.error = std::move(error).value();
    return ret;
}

/** [kind u8][len u32]: the framing in front of a @p size byte body. */
void
beginFramed(PayloadBuilder &builder, MessageKind kind, std::size_t size)
{
    Bytes &out = builder.buffer();
    out.reserve(out.size() + 5 + size);
    ByteWriter writer(out);
    writer.writeU8(static_cast<std::uint8_t>(kind));
    writer.writeU32(static_cast<std::uint32_t>(size));
}

/** [kind u8][len u32][body]: frame @p size bytes of @p data. */
Payload
encodeFramed(MessageKind kind, const std::uint8_t *data, std::size_t size)
{
    PayloadBuilder builder;
    beginFramed(builder, kind, size);
    Bytes &out = builder.buffer();
    out.insert(out.end(), data, data + size);
    return builder.seal();
}

/** Validate the frame, return the body as a slice of @p wire. */
Result<Payload>
decodeFramed(const Payload &wire, MessageKind expected, const char *what)
{
    ByteReader reader(wire.data(), wire.size());
    auto kind = reader.readU8();
    if (!kind)
        return kind.error();
    if (static_cast<MessageKind>(kind.value()) != expected)
        return Error(ErrorCode::ParseError,
                     std::string("not a ") + what + " message");
    auto len = reader.readU32();
    if (!len)
        return len.error();
    if (len.value() > reader.remaining())
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    // Body starts after the kind byte and the u32 length prefix.
    return wire.slice(5, len.value());
}

} // namespace

Payload
Call::serialize() const
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU8(static_cast<std::uint8_t>(MessageKind::Call));
    writer.writeU64(targetOffcode.value());
    writer.writeU64(interfaceGuid.value());
    writer.writeString(method);
    writer.writeBytes(arguments);
    writer.writeU64(callId);
    writer.writeU8(expectsReturn ? 1 : 0);
    return builder.seal();
}

Result<Call>
Call::deserialize(const Payload &wire)
{
    return deserializeCall(ByteReader(wire.data(), wire.size()));
}

Payload
CallReturn::serialize() const
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU8(static_cast<std::uint8_t>(MessageKind::Return));
    writer.writeU64(callId);
    writer.writeU8(ok ? 1 : 0);
    writer.writeBytes(value);
    writer.writeString(error);
    return builder.seal();
}

Result<CallReturn>
CallReturn::deserialize(const Payload &wire)
{
    return deserializeReturn(ByteReader(wire.data(), wire.size()));
}

std::string
spanName(const Call &call)
{
    return "call." + call.method;
}

Result<MessageKind>
peekKind(const Payload &wire)
{
    if (wire.empty())
        return Error(ErrorCode::ParseError, "empty message");
    const auto kind = static_cast<MessageKind>(wire[0]);
    switch (kind) {
      case MessageKind::Call:
      case MessageKind::Return:
      case MessageKind::Data:
      case MessageKind::Management:
        return kind;
    }
    return Error(ErrorCode::ParseError, "unknown message kind");
}

Payload
encodeData(const Bytes &payload)
{
    return encodeFramed(MessageKind::Data, payload.data(), payload.size());
}

Payload
encodeData(const Payload &payload)
{
    return encodeFramed(MessageKind::Data, payload.data(), payload.size());
}

void
beginData(PayloadBuilder &builder, std::size_t body_bytes)
{
    beginFramed(builder, MessageKind::Data, body_bytes);
}

Result<Payload>
decodeData(const Payload &wire)
{
    return decodeFramed(wire, MessageKind::Data, "Data");
}

Payload
encodeManagement(const Bytes &payload)
{
    return encodeFramed(MessageKind::Management, payload.data(),
                        payload.size());
}

Result<Payload>
decodeManagement(const Payload &wire)
{
    return decodeFramed(wire, MessageKind::Management, "Management");
}

} // namespace hydra::core
