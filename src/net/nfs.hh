/**
 * @file
 * NFS-lite: a minimal file-access protocol over the modeled network.
 *
 * The paper's testbed stores media on a NAS reached via NFS (both by
 * the video server and by the emulated "smart disk"). NfsLite
 * provides just enough of that protocol — LOOKUP/READ/WRITE with a
 * request/response exchange — to exercise the same remote-storage
 * code path.
 */

#ifndef HYDRA_NET_NFS_HH
#define HYDRA_NET_NFS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "common/bytes.hh"
#include "common/result.hh"
#include "net/network.hh"

namespace hydra::net {

/** Well-known NFS-lite port. */
constexpr Port kNfsPort = 2049;

/** NFS-lite wire operation codes. */
enum class NfsOp : std::uint8_t {
    Lookup = 1,
    Read = 2,
    Write = 3,
    GetSize = 4,
    ReplyOk = 100,
    ReplyError = 101,
};

/**
 * Largest file a Write may create or extend (1 GiB). The write's end
 * offset comes from the wire, so the server bounds it before resizing
 * and answers ReplyError beyond it.
 */
constexpr std::uint64_t kNfsMaxFileBytes = 1ull << 30;

/** In-memory file server bound to a network node. */
class NfsServer
{
  public:
    NfsServer(Network &network, NodeId node);
    ~NfsServer();

    NfsServer(const NfsServer &) = delete;
    NfsServer &operator=(const NfsServer &) = delete;

    /** Create or replace a file. */
    void putFile(const std::string &name, Bytes content);

    /**
     * Create or replace a file that shares @p content instead of
     * copying it. The file copies the buffer on its first Write
     * (copy-on-write), so @p content itself never changes.
     */
    void putFile(const std::string &name,
                 std::shared_ptr<const Bytes> content);

    /** Direct (out-of-band) access for test verification. */
    Result<Bytes> fileContent(const std::string &name) const;
    bool hasFile(const std::string &name) const;
    std::size_t fileCount() const { return files_.size(); }

    std::uint64_t requestsServed() const { return requestsServed_; }

  private:
    /** A file's bytes: a shared immutable buffer, or its own. */
    struct File
    {
        /** Set while the file shares a buffer it has not written. */
        std::shared_ptr<const Bytes> shared;
        Bytes owned;

        const Bytes &bytes() const { return shared ? *shared : owned; }
        /** The bytes to write: copies a shared buffer first. */
        Bytes &writable();
    };

    void onRequest(const Packet &request);

    Network &net_;
    NodeId node_;
    std::unordered_map<std::string, File> files_;
    std::uint64_t requestsServed_ = 0;
};

/**
 * Asynchronous NFS-lite client. Completion callbacks run when the
 * reply datagram arrives; requests time out only through higher
 * layers (datagram loss surfaces as a never-fired callback, like a
 * lost RPC without retransmit — the fabric defaults to lossless).
 */
class NfsClient
{
  public:
    using ReadCallback = std::function<void(Result<Bytes>)>;
    using WriteCallback = std::function<void(Status)>;
    using SizeCallback = std::function<void(Result<std::uint64_t>)>;

    /**
     * @param reply_port Local port for replies; each client instance
     * on a node needs a distinct one.
     */
    NfsClient(Network &network, NodeId node, NodeId server,
              Port reply_port = 33049);
    ~NfsClient();

    NfsClient(const NfsClient &) = delete;
    NfsClient &operator=(const NfsClient &) = delete;

    void read(const std::string &file, std::uint64_t offset,
              std::uint32_t length, ReadCallback done);
    void write(const std::string &file, std::uint64_t offset,
               const Bytes &data, WriteCallback done);
    void getSize(const std::string &file, SizeCallback done);

    std::uint64_t outstanding() const { return pending_.size(); }

  private:
    struct Pending
    {
        NfsOp op;
        ReadCallback onRead;
        WriteCallback onWrite;
        SizeCallback onSize;
    };

    void onReply(const Packet &reply);
    std::uint64_t sendRequest(NfsOp op, const std::string &file,
                              std::uint64_t offset, std::uint32_t length,
                              std::span<const std::uint8_t> data = {});

    Network &net_;
    NodeId node_;
    NodeId server_;
    Port replyPort_;
    std::uint64_t nextXid_ = 1;
    std::map<std::uint64_t, Pending> pending_;
};

} // namespace hydra::net

#endif // HYDRA_NET_NFS_HH
