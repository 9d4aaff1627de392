// A toxiproxy-style TCP fault-injection proxy, as a library so the
// chaos and trace tests (tests/test_chaos.cc, tests/test_trace.cc) can
// run traffic through it in-process and mutate the faults mid-flight; the
// cbvlink_faultproxy tool is a thin CLI over it.
//
// The proxy accepts on a local port and pumps bytes to/from a single
// upstream, applying the active FaultSpec to every chunk:
//
//   latency_ms / jitter_ms   delay each chunk (uniform jitter)
//   bandwidth_bps            throttle forwarding to a byte rate
//   slice_bytes              forward at most N bytes per write (1 =
//                            the classic 1-byte slicer)
//   corrupt_ppm              flip one random bit per corrupted byte,
//                            with probability ppm / 1e6 per byte
//   reset_after_bytes        RST both sides of a connection once it
//                            has forwarded this many bytes
//   blackhole                stop forwarding (bytes already read are
//                            HELD, not dropped — like a partition, not
//                            packet loss; clearing the flag releases
//                            them, mirroring TCP retransmit semantics)
//
// All knobs are atomics: tests flip them while connections are live.
// Faults apply in both directions.  Corruption uses a deterministic,
// explicitly seeded Rng per pump so failures reproduce.

#ifndef CBVLINK_NET_FAULTPROXY_H_
#define CBVLINK_NET_FAULTPROXY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace cbvlink {
namespace net {

struct FaultSpec {
  std::atomic<int> latency_ms{0};
  std::atomic<int> jitter_ms{0};
  std::atomic<int64_t> bandwidth_bps{0};   ///< 0 = unlimited
  std::atomic<int> slice_bytes{0};         ///< 0 = no slicing
  std::atomic<int> corrupt_ppm{0};         ///< per-byte, parts per million
  std::atomic<int64_t> reset_after_bytes{0};  ///< per connection; 0 = never
  std::atomic<bool> blackhole{false};
  std::atomic<uint64_t> seed{0xfa017cafeULL};

  /// Parses the failpoint-style spec grammar
  /// "latency=5;jitter=2;slice=1;corrupt=1000;bandwidth=65536;
  ///  reset_after=4096;blackhole=1" into `*this` (unlisted knobs are
  /// left untouched).  Unknown names are InvalidArgument.
  Status Parse(std::string_view spec);
};

/// The proxy.  Start() binds and spawns the accept thread; every
/// accepted connection gets an upstream connection and two pump
/// threads.  Shutdown() (or the destructor) closes everything.
class FaultProxy {
 public:
  static Result<std::unique_ptr<FaultProxy>> Start(
      std::string upstream_host, uint16_t upstream_port,
      uint16_t listen_port = 0, std::string bind_address = "127.0.0.1");

  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  /// The bound listen port.
  uint16_t port() const;

  /// The live fault knobs (mutate at will).
  FaultSpec& faults();

  /// RSTs every active proxied connection (SO_LINGER 0 close), the
  /// "connection reset" scenario.  New connections proxy normally.
  void ResetAllConnections();

  /// Currently proxied connections.
  size_t active_connections() const;

  /// Total bytes forwarded (both directions) since Start.
  uint64_t forwarded_bytes() const;

  void Shutdown();

 private:
  struct Impl;
  explicit FaultProxy(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace cbvlink

#endif  // CBVLINK_NET_FAULTPROXY_H_
