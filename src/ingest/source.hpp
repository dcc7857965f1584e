// PacketSource: the capture abstraction at the head of the ingest
// pipeline (the "sniffer" of CoMo's capture process).
//
// A source is bound to one monitored link and hands out batches of
// PacketRecords in non-decreasing timestamp order. Two implementations
// ship: the deterministic synthetic generator driven by the traffic
// models (ingest/synthetic.hpp) and the pcap trace reader with optional
// clock-paced replay (ingest/trace.hpp). Each source is owned by exactly
// one producer thread, so implementations need no internal locking.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ingest/packet.hpp"
#include "topo/graph.hpp"

namespace netmon::ingest {

/// A stream of packets observed on one link.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// The monitored link this source feeds.
  virtual topo::LinkId link() const noexcept = 0;

  /// Fills up to `max` records (timestamps non-decreasing across calls)
  /// and returns the count. 0 means either end-of-stream (exhausted())
  /// or, for paced sources, "nothing due yet" — producers distinguish
  /// the two and yield rather than spin on a paced source.
  virtual std::size_t next_batch(PacketRecord* out, std::size_t max) = 0;

  /// True once the stream can never produce again.
  virtual bool exhausted() const noexcept = 0;

  /// Packets the whole stream will carry (an upper bound will do), or 0
  /// when unknown. Only a load hint: IngestPipeline balances its
  /// producers by it.
  virtual std::uint64_t expected_packets() const noexcept { return 0; }
};

/// Resolves the ring-capacity knob: `configured` when non-zero, else the
/// NETMON_INGEST_RING environment variable, else `fallback`. Unparsable
/// or absurd env values fall back too; the result is clamped to
/// [2, 1 << 24] before the ring rounds it up to a power of two.
std::size_t ring_capacity_from_env(std::size_t configured,
                                   std::size_t fallback = 8192) noexcept;

}  // namespace netmon::ingest
