/**
 * @file
 * Call objects (paper Section 3.1): the serialized representation of
 * one method invocation on an Offcode interface. Proxies produce
 * Calls transparently; the manual invocation scheme builds them
 * directly with an encoder.
 */

#ifndef HYDRA_CORE_CALL_HH
#define HYDRA_CORE_CALL_HH

#include <cstdint>
#include <string>

#include "common/bytes.hh"
#include "common/guid.hh"
#include "common/payload.hh"
#include "common/result.hh"

namespace hydra::core {

/** Kinds of messages that travel over channels. */
enum class MessageKind : std::uint8_t {
    /** A serialized Call to be dispatched at the target Offcode. */
    Call = 1,
    /** The return value of a previously sent Call. */
    Return = 2,
    /** Raw application data (e.g. media payload on a data channel). */
    Data = 3,
    /** Runtime management traffic on the OOB channel. */
    Management = 4,
};

/** One interface-method invocation with marshaled arguments. */
struct Call
{
    Guid targetOffcode;
    Guid interfaceGuid;
    std::string method;
    Bytes arguments;
    std::uint64_t callId = 0;
    /** When false the invoker expects no Return message. */
    bool expectsReturn = true;

    /** Wire-encode (kind byte included) into a pooled buffer. */
    Payload serialize() const;

    /** Decode from the wire; fails on malformed input. */
    static Result<Call> deserialize(const Payload &wire);
    static Result<Call> deserialize(const Bytes &wire);
};

/** A Call's response, matched by callId. */
struct CallReturn
{
    std::uint64_t callId = 0;
    bool ok = true;
    Bytes value;       ///< marshaled return value when ok
    std::string error; ///< failure description when !ok

    Payload serialize() const;
    static Result<CallReturn> deserialize(const Payload &wire);
    static Result<CallReturn> deserialize(const Bytes &wire);
};

/** Trace-span name of a Call's dispatch ("call.<method>"). */
std::string spanName(const Call &call);

/** Peek at the kind byte of a wire message (Ok only if non-empty). */
Result<MessageKind> peekKind(const Payload &wire);
Result<MessageKind> peekKind(const Bytes &wire);

/** Wrap raw payload as a Data message (pooled buffer). */
Payload encodeData(const Bytes &payload);
Payload encodeData(const Payload &payload);

/**
 * Start a Data message in @p builder for a body the caller then
 * appends in place: writes the framing and reserves room for it all.
 * The caller must append exactly @p body_bytes before seal().
 */
void beginData(PayloadBuilder &builder, std::size_t body_bytes);

/** Unwrap a Data message: a zero-copy slice of the same buffer. */
Result<Payload> decodeData(const Payload &wire);

/** Wrap raw payload as a Management message (pooled buffer). */
Payload encodeManagement(const Bytes &payload);
Payload encodeManagement(const Payload &payload);

/** Unwrap a Management message (zero-copy slice). */
Result<Payload> decodeManagement(const Payload &wire);

} // namespace hydra::core

#endif // HYDRA_CORE_CALL_HH
