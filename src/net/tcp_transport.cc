#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/buffer_pool.h"
#include "obs/telemetry.h"

namespace massbft {

namespace {

constexpr int kPollTimeoutMs = 50;
/// Receive chunk per recv() — large so one syscall drains a burst of small
/// frames — and the per-connection cap per wakeup so one firehose peer
/// cannot starve the others.
constexpr size_t kRecvChunk = 256 * 1024;
constexpr size_t kMaxReadPerWake = 1 << 20;
/// Sender batch bounds: at most this many frames (iovec entries) and bytes
/// per sendmsg(). IOV_MAX is >= 1024 everywhere; 64 already amortizes the
/// syscall to noise while keeping the partial-write walk short.
constexpr size_t kMaxBatchIov = 128;
constexpr size_t kMaxBatchBytes = 1 << 20;

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Result<TcpPortMap> MakeLocalPortMap(const std::vector<int>& group_sizes,
                                    uint16_t base) {
  uint32_t total = 0;
  for (int size : group_sizes) {
    if (size < 0) return Status::InvalidArgument("negative group size");
    total += static_cast<uint32_t>(size);
  }
  if (total > 0 && static_cast<uint32_t>(base) + total - 1 > 65535)
    return Status::InvalidArgument(
        "port range overflows 65535: base " + std::to_string(base) + " + " +
        std::to_string(total) + " nodes");
  TcpPortMap ports;
  uint32_t next = base;
  for (size_t g = 0; g < group_sizes.size(); ++g)
    for (int i = 0; i < group_sizes[g]; ++i)
      ports[NodeId{static_cast<uint16_t>(g), static_cast<uint16_t>(i)}
                .Packed()] = static_cast<uint16_t>(next++);
  return ports;
}

TcpTransport::TcpTransport(NodeId self, TcpPortMap ports)
    : TcpTransport(self, std::move(ports), Options{}) {}

TcpTransport::TcpTransport(NodeId self, TcpPortMap ports, Options options)
    : self_(self),
      ports_(std::move(ports)),
      options_(options),
      jitter_rng_(0x7C7Bull * (self.Packed() + 1)) {}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::BindTelemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) return;
  telemetry_ = telemetry;
  obs::MetricsRegistry& registry = telemetry->registry();
  queue_depth_gauge_ = registry.GetGauge("net/queue_depth");
  reconnects_counter_ = registry.GetCounter("net/reconnects");
  backpressure_counter_ = registry.GetCounter("net/dropped_backpressure");
}

Status TcpTransport::Start(DeliverFn deliver) {
  auto it = ports_.find(self_.Packed());
  if (it == ports_.end())
    return Status::InvalidArgument("self has no port assignment");
  {
    MutexLock lock(&mu_);
    if (running_) return Status::FailedPrecondition("transport running");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(it->second);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind() failed: " +
                           std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("listen() failed");
  }
  if (::pipe(wake_pipe_) != 0 || ::pipe(writer_wake_pipe_) != 0) {
    CloseFd(listen_fd_);
    CloseFd(wake_pipe_[0]);
    CloseFd(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
    return Status::Unavailable("pipe() failed");
  }

  {
    MutexLock lock(&mu_);
    deliver_ = std::move(deliver);
    running_ = true;
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  writer_thread_ = std::thread([this] { WriterLoop(); });
  return Status::OK();
}

void TcpTransport::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
  }
  // Wake both loops so they observe the flag.
  uint8_t byte = 0;
  [[maybe_unused]] ssize_t n1 = ::write(wake_pipe_[1], &byte, 1);
  WakeWriter();
  if (io_thread_.joinable()) io_thread_.join();
  if (writer_thread_.joinable()) writer_thread_.join();

  CloseFd(listen_fd_);
  listen_fd_ = -1;
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
  CloseFd(writer_wake_pipe_[0]);
  CloseFd(writer_wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  writer_wake_pipe_[0] = writer_wake_pipe_[1] = -1;

  MutexLock lock(&mu_);
  for (auto& [packed, peer] : peers_) {
    CloseFd(peer->fd);
    for (QueuedFrame& frame : peer->queue) RecycleFrame(frame);
  }
  // Drop connection state and queued frames; a restarted transport dials
  // fresh. Counters survive restarts.
  peers_.clear();
  total_queued_frames_ = 0;
  UpdateQueueGaugeLocked();
}

Status TcpTransport::Send(NodeId dst, const ProtocolMessage& msg) {
  // Encode outside mu_ into a pooled buffer: the hot path's only
  // allocation is the pool warming up, and encode cost never serializes
  // concurrent senders.
  Bytes wire = WireBufferPool().Acquire();
  EncodeFrameInto(msg, self_, &wire);
  return EnqueueFrame(dst, std::move(wire), /*pooled=*/true);
}

Status TcpTransport::SendEncoded(NodeId dst, Bytes wire) {
  return EnqueueFrame(dst, std::move(wire), /*pooled=*/false);
}

void TcpTransport::RecycleFrame(QueuedFrame& frame) {
  if (frame.pooled) WireBufferPool().Release(std::move(frame.wire));
}

Status TcpTransport::EnqueueFrame(NodeId dst, Bytes wire, bool pooled) {
  QueuedFrame frame{std::move(wire), pooled};
  MutexLock lock(&mu_);
  if (!running_) {
    RecycleFrame(frame);
    return Status::FailedPrecondition("transport stopped");
  }
  if (ports_.find(dst.Packed()) == ports_.end()) {
    stats_.send_errors++;
    RecycleFrame(frame);
    return Status::NotFound("destination has no port assignment");
  }
  Peer& peer = PeerLocked(dst.Packed());
  if (peer.queue.size() >= options_.max_queue_frames ||
      peer.queued_bytes + frame.wire.size() > options_.max_queue_bytes) {
    stats_.dropped_backpressure++;
    if (backpressure_counter_ != nullptr) backpressure_counter_->Add();
    RecordNetEvent("backpressure_drop", static_cast<double>(dst.Packed()),
                   static_cast<double>(frame.wire.size()));
    RecycleFrame(frame);
    return Status::Unavailable("send queue full (backpressure drop)");
  }
  const bool was_empty = peer.queue.empty();
  peer.queued_bytes += frame.wire.size();
  peer.queue.push_back(std::move(frame));
  total_queued_frames_++;
  UpdateQueueGaugeLocked();
  // Only the empty->nonempty transition needs a wake (a pipe write is a
  // syscall — on the per-frame path it would cost as much as the batched
  // sendmsg saves). With a nonempty queue the writer is already polling
  // this peer's socket or its dial timer.
  if (was_empty) WakeWriter();
  return Status::OK();
}

TcpTransport::Peer& TcpTransport::PeerLocked(uint32_t dst_packed) {
  auto& slot = peers_[dst_packed];
  if (!slot) {
    slot = std::make_unique<Peer>();
    slot->packed = dst_packed;
  }
  return *slot;
}

void TcpTransport::RecordNetEvent(const char* name, double peer,
                                  double detail) {
  if (telemetry_ == nullptr) return;
  const SimTime now = telemetry_->TraceNowNs();
  telemetry_->flight().Record(static_cast<uint64_t>(now), "net", name, peer,
                              detail);
  if (telemetry_->tracing()) {
    telemetry_->trace().RecordInstant(
        obs::Telemetry::NodeTrack(self_.Packed()), "net", name, now,
        obs::TraceArgs{{{"peer", peer}, {"detail", detail}}});
  }
}

void TcpTransport::WakeWriter() {
  if (writer_wake_pipe_[1] < 0) return;
  uint8_t byte = 0;
  [[maybe_unused]] ssize_t n = ::write(writer_wake_pipe_[1], &byte, 1);
}

void TcpTransport::UpdateQueueGaugeLocked() {
  if (queue_depth_gauge_ != nullptr)
    queue_depth_gauge_->Set(static_cast<double>(total_queued_frames_));
}

void TcpTransport::BeginConnectLocked(Peer& peer, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    DisconnectLocked(peer);
    return;
  }
  SetNonBlocking(fd);
  sockaddr_in addr = LoopbackAddr(port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    peer.fd = fd;
    OnConnectedLocked(peer);
    return;
  }
  if (errno == EINPROGRESS) {
    peer.fd = fd;
    peer.state = Peer::State::kConnecting;
    return;
  }
  CloseFd(fd);
  DisconnectLocked(peer);
}

void TcpTransport::FinishConnectLocked(Peer& peer) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    CloseFd(peer.fd);
    peer.fd = -1;
    DisconnectLocked(peer);
    return;
  }
  OnConnectedLocked(peer);
}

void TcpTransport::OnConnectedLocked(Peer& peer) {
  int one = 1;
  ::setsockopt(peer.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  peer.state = Peer::State::kConnected;
  peer.backoff_ms = 0;
  if (peer.ever_connected) {
    stats_.reconnects++;
    if (reconnects_counter_ != nullptr) reconnects_counter_->Add();
    RecordNetEvent("reconnect", static_cast<double>(peer.packed), 0);
  }
  peer.ever_connected = true;
  FlushLocked(peer);
}

void TcpTransport::DisconnectLocked(Peer& peer) {
  CloseFd(peer.fd);
  peer.fd = -1;
  peer.state = Peer::State::kIdle;
  // A frame already partially on the wire cannot be resumed on a fresh
  // connection; drop it whole (the BFT layer owns retries).
  if (peer.write_off > 0 && !peer.queue.empty()) {
    peer.queued_bytes -= peer.queue.front().wire.size();
    RecycleFrame(peer.queue.front());
    peer.queue.pop_front();
    total_queued_frames_--;
    stats_.send_errors++;
    UpdateQueueGaugeLocked();
  }
  peer.write_off = 0;
  // Exponential backoff with uniform jitter in [0.5x, 1.5x].
  peer.backoff_ms = peer.backoff_ms == 0
                        ? options_.backoff_initial_ms
                        : std::min(peer.backoff_ms * 2, options_.backoff_max_ms);
  double jitter = 0.5 + jitter_rng_.NextDouble();
  peer.next_dial =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                         1000.0 * jitter * peer.backoff_ms));
  if (peer.ever_connected)
    RecordNetEvent("disconnect", static_cast<double>(peer.packed),
                   static_cast<double>(peer.backoff_ms));
}

void TcpTransport::FlushLocked(Peer& peer) {
  size_t popped = 0;
  // Pooled buffers from sent frames collect here and recycle under one
  // pool lock per flush instead of one per frame.
  recycle_scratch_.clear();
  while (!peer.queue.empty()) {
    // Gather up to kMaxBatchIov queued frames into one scatter-gather
    // write. The first entry starts at write_off when a previous call left
    // the front frame partially on the wire.
    iovec iov[kMaxBatchIov];
    size_t niov = 0;
    size_t batch_bytes = 0;
    size_t skip = peer.write_off;
    for (const QueuedFrame& frame : peer.queue) {
      if (niov == kMaxBatchIov || batch_bytes >= kMaxBatchBytes) break;
      iov[niov].iov_base = const_cast<uint8_t*>(frame.wire.data() + skip);
      iov[niov].iov_len = frame.wire.size() - skip;
      batch_bytes += iov[niov].iov_len;
      ++niov;
      skip = 0;
    }

    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(peer.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // Socket full.
      if (popped > 0) UpdateQueueGaugeLocked();
      if (!recycle_scratch_.empty())
        WireBufferPool().ReleaseAll(&recycle_scratch_);
      DisconnectLocked(peer);  // Peer died mid-write; reconnect with backoff.
      return;
    }
    stats_.send_syscalls++;

    // Walk the accepted byte count over the queue: whole frames pop (and
    // their pooled buffers recycle), a trailing partial frame records its
    // resume offset in write_off.
    size_t accepted = static_cast<size_t>(n);
    while (accepted > 0) {
      QueuedFrame& front = peer.queue.front();
      const size_t remaining = front.wire.size() - peer.write_off;
      if (accepted < remaining) {
        peer.write_off += accepted;
        break;
      }
      accepted -= remaining;
      stats_.frames_sent++;
      stats_.bytes_sent += front.wire.size();
      peer.queued_bytes -= front.wire.size();
      if (front.pooled) recycle_scratch_.push_back(std::move(front.wire));
      peer.queue.pop_front();
      peer.write_off = 0;
      total_queued_frames_--;
      popped++;
    }
    if (static_cast<size_t>(n) < batch_bytes) break;  // Wait for POLLOUT.
  }
  // One gauge update per flush, not per frame: the gauge is for humans and
  // the per-pop Set() was measurable at millions of frames/sec.
  if (popped > 0) UpdateQueueGaugeLocked();
  if (!recycle_scratch_.empty()) WireBufferPool().ReleaseAll(&recycle_scratch_);
}

void TcpTransport::WriterLoop() {
  std::vector<pollfd> fds;
  std::vector<Peer*> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    int timeout_ms = kPollTimeoutMs;
    {
      MutexLock lock(&mu_);
      if (!running_) break;
      const Clock::time_point now = Clock::now();
      for (auto& [packed, slot] : peers_) {
        Peer& peer = *slot;
        if (peer.state == Peer::State::kIdle && !peer.queue.empty()) {
          if (now >= peer.next_dial) {
            auto port_it = ports_.find(packed);
            if (port_it != ports_.end())
              BeginConnectLocked(peer, port_it->second);
          }
          if (peer.state == Peer::State::kIdle) {
            // Still backing off: wake when the next dial is due.
            auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                            peer.next_dial - now)
                            .count();
            timeout_ms = std::max(
                1, std::min(timeout_ms, static_cast<int>(wait) + 1));
          }
        }
        if (peer.state == Peer::State::kConnecting ||
            (peer.state == Peer::State::kConnected && !peer.queue.empty())) {
          fds.push_back(pollfd{peer.fd, POLLOUT, 0});
          polled.push_back(&peer);
        }
      }
    }
    fds.push_back(pollfd{writer_wake_pipe_[0], POLLIN, 0});

    int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    if (fds.back().revents & POLLIN) {
      uint8_t buf[64];
      [[maybe_unused]] ssize_t n =
          ::read(writer_wake_pipe_[0], buf, sizeof(buf));
    }

    MutexLock lock(&mu_);
    if (!running_) break;
    // Peer objects are stable (unique_ptr values, map never erased while
    // running), so the pointers collected above remain valid.
    for (size_t i = 0; i < polled.size(); ++i) {
      if (!(fds[i].revents & (POLLOUT | POLLERR | POLLHUP))) continue;
      Peer& peer = *polled[i];
      if (peer.state == Peer::State::kConnecting) FinishConnectLocked(peer);
      if (peer.state == Peer::State::kConnected) FlushLocked(peer);
    }
  }
}

bool TcpTransport::ReadAndDeliver(Conn& conn) {
  // Drain the socket with large recv()s straight into the reassembler's
  // writable tail — no staging copy. Bounded per wakeup so one firehose
  // connection cannot starve the rest of the poll set.
  size_t read_total = 0;
  uint64_t reads = 0;
  bool closed = false;
  while (read_total < kMaxReadPerWake) {
    uint8_t* dst = conn.rx.WritableData(kRecvChunk);
    ssize_t n = ::read(conn.fd, dst, kRecvChunk);
    if (n > 0) {
      conn.rx.CommitWrite(static_cast<size_t>(n));
      read_total += static_cast<size_t>(n);
      reads++;
      if (static_cast<size_t>(n) < kRecvChunk) break;  // Socket drained.
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;  // EOF or hard error; deliver what we have, then close.
    break;
  }

  // Decode the whole batch, then deliver in order. Frames decoded before a
  // framing error still reach the engine; the connection dies after.
  std::vector<Frame> frames;
  const size_t pending_before = conn.rx.PendingBytes();
  const Status drained = conn.rx.Drain(&frames);
  const size_t consumed = pending_before - conn.rx.PendingBytes();

  DeliverFn deliver;
  {
    MutexLock lock(&mu_);
    stats_.recv_syscalls += reads;
    stats_.frames_received += frames.size();
    stats_.bytes_received += consumed;
    if (!drained.ok()) stats_.decode_errors++;
    deliver = deliver_;
  }
  if (deliver)
    for (Frame& frame : frames) deliver(std::move(frame));
  return drained.ok() && !closed;
}

void TcpTransport::IoLoop() {
  std::vector<Conn> conns;
  std::vector<pollfd> fds;

  for (;;) {
    {
      MutexLock lock(&mu_);
      if (!running_) break;
    }
    fds.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const Conn& c : conns) fds.push_back(pollfd{c.fd, POLLIN, 0});

    int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;

    if (fds[0].revents & POLLIN) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // Non-blocking so the recv-until-EAGAIN loop never stalls the
        // whole poll set on one connection.
        SetNonBlocking(fd);
        conns.emplace_back(fd);
      }
    }
    if (fds[1].revents & POLLIN) {
      uint8_t byte;
      [[maybe_unused]] ssize_t n = ::read(wake_pipe_[0], &byte, 1);
    }

    // Walk the polled connections back-to-front so erasing doesn't shift
    // unvisited entries; fds[i + 2] corresponds to conns[i]. A connection
    // accepted above has no poll slot yet and waits for the next round.
    const size_t polled = fds.size() - 2;
    for (size_t i = polled; i-- > 0;) {
      if (!(fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!ReadAndDeliver(conns[i])) {
        CloseFd(conns[i].fd);
        conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
      }
    }
  }

  for (Conn& c : conns) CloseFd(c.fd);
}

Transport::Stats TcpTransport::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace massbft
