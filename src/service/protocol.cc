#include "service/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace fsmoe::service {

namespace {

bool
writeAll(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        // MSG_NOSIGNAL: a peer that already died yields EPIPE, not a
        // SIGPIPE that would kill the sender before it can heal.
        const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

} // namespace

bool
validFrameType(char t)
{
    switch (static_cast<FrameType>(t)) {
    case FrameType::Hello:
    case FrameType::Assign:
    case FrameType::Heartbeat:
    case FrameType::Result:
    case FrameType::EvalError:
    case FrameType::Shutdown:
        return true;
    default:
        return false;
    }
}

std::string
encodeFrame(const Frame &f)
{
    const uint32_t len = static_cast<uint32_t>(f.body.size() + 1);
    std::string out;
    out.reserve(4 + len);
    // Length is serialised byte-by-byte so the wire format is
    // little-endian on every host, not just x86.
    out.push_back(static_cast<char>(len & 0xff));
    out.push_back(static_cast<char>((len >> 8) & 0xff));
    out.push_back(static_cast<char>((len >> 16) & 0xff));
    out.push_back(static_cast<char>((len >> 24) & 0xff));
    out.push_back(static_cast<char>(f.type));
    out += f.body;
    return out;
}

bool
sendFrame(int fd, const Frame &f)
{
    const std::string wire = encodeFrame(f);
    return writeAll(fd, wire.data(), wire.size());
}

void
FrameReader::feed(const char *data, size_t n)
{
    buf_.append(data, n);
}

bool
FrameReader::next(Frame *out, std::string *error)
{
    if (poisoned_) {
        if (error != nullptr)
            *error = poison_error_;
        return false;
    }
    if (buf_.size() < 4)
        return false;
    const auto b = [&](size_t i) {
        return static_cast<uint32_t>(static_cast<unsigned char>(buf_[i]));
    };
    const uint32_t len = b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
    if (len == 0 || len > kMaxFrameBytes) {
        poisoned_ = true;
        poison_error_ =
            "protocol error: frame length " + std::to_string(len) +
            " outside (0, " + std::to_string(kMaxFrameBytes) + "]";
        if (error != nullptr)
            *error = poison_error_;
        return false;
    }
    if (buf_.size() < 4 + static_cast<size_t>(len))
        return false;
    const char type = buf_[4];
    if (!validFrameType(type)) {
        poisoned_ = true;
        poison_error_ = std::string("protocol error: unknown frame type '") +
                        type + "'";
        if (error != nullptr)
            *error = poison_error_;
        return false;
    }
    out->type = static_cast<FrameType>(type);
    out->body.assign(buf_, 5, len - 1);
    buf_.erase(0, 4 + static_cast<size_t>(len));
    return true;
}

long
readIntoReader(int fd, FrameReader *reader)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (n > 0)
            reader->feed(buf, static_cast<size_t>(n));
        return static_cast<long>(n);
    }
}

} // namespace fsmoe::service
