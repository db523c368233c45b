/**
 * @file
 * Length-prefixed framing for the sweep service's worker and control
 * connections (docs/SERVICE.md).
 *
 * Every message on a service socket is one frame:
 *
 *   uint32 LE payload length  (type byte + body, < kMaxFrameBytes)
 *   1 type byte               (FrameType, a printable character)
 *   body bytes                (plain text; space-separated fields)
 *
 * The format is transport-agnostic — the daemon uses AF_UNIX
 * socketpairs to its forked workers today, but nothing here assumes
 * more than a reliable stream socket, so the same framing works over
 * TCP for cross-host workers later.
 *
 * Frames (direction, body):
 *   Hello      worker -> server   "<workerId>" — ready for work
 *   Assign     server -> worker   "<gridIndex> <attempt>" — one scenario
 *   Heartbeat  worker -> server   "<workerId>" — liveness proof
 *   Result     worker -> server   "<gridIndex> <one-line JSON record>"
 *   EvalError  worker -> server   "<gridIndex> <message>"
 *   Shutdown   server -> worker   "" — graceful drain request
 *
 * Determinism: framing adds no timestamps or randomness; a frame's
 * bytes are a pure function of its type and body.
 *
 * Thread-safety: FrameReader is a plain value type (one per
 * connection, single owner). sendFrame/readIntoReader are pure
 * functions of their arguments plus the fd.
 */
#ifndef FSMOE_SERVICE_PROTOCOL_H
#define FSMOE_SERVICE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace fsmoe::service {

/** Upper bound on one frame's payload; larger is a protocol error. */
constexpr size_t kMaxFrameBytes = 1u << 20;

/** Frame kinds; values are the printable on-wire type bytes. */
enum class FrameType : char
{
    Hello = 'H',
    Assign = 'A',
    Heartbeat = 'B',
    Result = 'R',
    EvalError = 'E',
    Shutdown = 'S',
};

/** True when @p t is one of the FrameType values above. */
bool validFrameType(char t);

/** One protocol message. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::string body;
};

/** Serialise @p f to its on-wire bytes (length prefix included). */
std::string encodeFrame(const Frame &f);

/**
 * Blocking send of @p f on socket @p fd (retrying short writes /
 * EINTR). Returns false on any send error — for a worker socket that
 * means the peer is gone and the connection should be torn down. A
 * closed peer never raises SIGPIPE (MSG_NOSIGNAL).
 */
bool sendFrame(int fd, const Frame &f);

/**
 * Incremental frame decoder: feed() raw bytes as they arrive, then
 * next() pops complete frames in order. Partial frames stay buffered
 * until their remaining bytes arrive, so short reads never corrupt
 * the stream.
 */
class FrameReader
{
  public:
    /** Append @p n raw bytes from the stream. */
    void feed(const char *data, size_t n);

    /**
     * Pop the next complete frame into *out. Returns false when no
     * complete frame is buffered; a malformed stream (oversized
     * length, unknown type byte) sets *error and poisons the reader —
     * every later next() fails too, because framing can no longer be
     * trusted.
     */
    bool next(Frame *out, std::string *error);

    /** Bytes buffered but not yet consumed (tests / diagnostics). */
    size_t pendingBytes() const { return buf_.size(); }

  private:
    std::string buf_;
    bool poisoned_ = false;
    std::string poison_error_;
};

/**
 * Read whatever is available on @p fd into @p reader (one read(2)
 * call, retrying EINTR). Returns the byte count, 0 on EOF, -1 on
 * error.
 */
long readIntoReader(int fd, FrameReader *reader);

} // namespace fsmoe::service

#endif // FSMOE_SERVICE_PROTOCOL_H
