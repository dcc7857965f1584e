// Pcap-format trace replay: the "real traffic" half of the source layer.
//
// Writer: encode_trace / write_trace serialize PacketRecords as a
// classic little-endian pcap file (LINKTYPE_IPV4, microsecond
// timestamps) whose packets carry a minimal IPv4 + TCP/UDP header — just
// enough wire format to round-trip the 5-tuple, sizes, and FIN flags.
//
// Reader: TraceReader validates the *entire framing* up front (magic,
// endianness, version, per-record lengths against both the snaplen and
// the bytes actually present) and throws netmon::Error on any
// violation, so replay itself never throws and never reads past a
// buffer — the fuzz tests in tests/ingest_trace_test.cpp feed it
// truncations, bad magics, and over-long caplens. Packets whose payload
// is not parseable IPv4 are counted in malformed_packets() and skipped;
// framing stays intact so one bad payload never desynchronizes the
// stream.
//
// Pacing: with speed > 0 the reader releases packets as the injected
// obs::Clock advances — `speed` trace-seconds per clock-second — so a
// ManualClock replays a trace deterministically (tests, the
// ingest_replay example) and the system clock replays it in real time.
// speed == 0 replays as fast as the consumer can drain.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ingest/source.hpp"
#include "obs/clock.hpp"

namespace netmon::ingest {

/// Pcap magics (little-endian on disk; byte-swapped variants accepted).
inline constexpr std::uint32_t kPcapMagicUsec = 0xa1b2c3d4;
inline constexpr std::uint32_t kPcapMagicNsec = 0xa1b23c4d;
/// LINKTYPE_IPV4: packets begin directly with the IPv4 header.
inline constexpr std::uint32_t kLinkTypeIpv4 = 228;
/// Hard cap on any capture length the reader will accept.
inline constexpr std::uint32_t kMaxCaplen = 65535;

/// Serializes records as a pcap byte stream (timestamps are taken as
/// seconds since the pcap epoch; callers replaying one measurement
/// interval just use interval-relative times).
std::vector<std::uint8_t> encode_trace(std::span<const PacketRecord> packets);

/// encode_trace straight to a file. Throws netmon::Error on I/O failure.
void write_trace(const std::string& path,
                 std::span<const PacketRecord> packets);

/// Replay options.
struct TraceReadOptions {
  /// The monitored link this trace belongs to.
  topo::LinkId link = 0;
  /// Trace-seconds released per clock-second; 0 = unpaced.
  double speed = 0.0;
  /// Pacing clock; null = the process steady clock. Borrowed.
  const obs::Clock* clock = nullptr;
};

/// Pcap replay source. Construction validates all framing (throws
/// netmon::Error); next_batch never throws.
class TraceReader final : public PacketSource {
 public:
  TraceReader(std::vector<std::uint8_t> bytes, TraceReadOptions options = {});

  /// Reads the whole file into memory (buffered replay) and validates.
  static TraceReader from_file(const std::string& path,
                               TraceReadOptions options = {});

  topo::LinkId link() const noexcept override { return options_.link; }
  std::size_t next_batch(PacketRecord* out, std::size_t max) override;
  bool exhausted() const noexcept override { return cursor_ >= bytes_.size(); }
  /// frame_count(): malformed frames are skipped, so an upper bound.
  std::uint64_t expected_packets() const noexcept override { return frames_; }

  /// Frames validated at construction.
  std::uint64_t frame_count() const noexcept { return frames_; }
  /// Frames skipped during replay because the payload was not
  /// parseable IPv4 (framing itself was valid).
  std::uint64_t malformed_packets() const noexcept { return malformed_; }

 private:
  /// Validates the global header + every record frame; throws on error.
  void validate();
  /// Decodes the frame at `offset` (framing pre-validated); returns
  /// false when the payload is not parseable IPv4.
  bool decode_frame(std::size_t offset, PacketRecord* out) const noexcept;

  std::vector<std::uint8_t> bytes_;
  TraceReadOptions options_;
  bool swapped_ = false;
  bool nanos_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t malformed_ = 0;
  std::size_t cursor_ = 0;  // next frame offset
  double last_ts_ = 0.0;    // monotonic clamp
  // Pacing state, latched on the first next_batch call.
  bool pacing_started_ = false;
  obs::TimePoint pace_start_{};
  double first_ts_ = 0.0;
};

}  // namespace netmon::ingest
