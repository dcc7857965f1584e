#include "ingest/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::ingest {
namespace {

using namespace std::chrono_literals;

std::vector<PacketRecord> sample_packets() {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 10; ++i) {
    PacketRecord p;
    p.key.src_ip = 0x0a000001u + static_cast<std::uint32_t>(i % 3);
    p.key.dst_ip = 0x0a010002u;
    p.key.src_port = static_cast<std::uint16_t>(1000 + i);
    p.key.dst_port = 443;
    p.key.proto = (i % 2 == 0) ? 6 : 17;  // alternate TCP / UDP
    p.bytes = 40 + static_cast<std::uint32_t>(i) * 100;
    p.ts_sec = 0.25 * i;
    if (i == 8) p.flags = kPacketFin;  // i == 8 is TCP (even)
    packets.push_back(p);
  }
  return packets;
}

std::vector<PacketRecord> drain(TraceReader& reader) {
  std::vector<PacketRecord> out;
  PacketRecord buf[4];
  while (!reader.exhausted()) {
    const std::size_t n = reader.next_batch(buf, 4);
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

// --- round trip ---

TEST(Trace, EncodeDecodeRoundTripsEverything) {
  const std::vector<PacketRecord> in = sample_packets();
  TraceReader reader(encode_trace(in), {.link = 3});
  EXPECT_EQ(reader.link(), 3u);
  EXPECT_EQ(reader.frame_count(), in.size());
  // The frame count is the pipeline's producer-balancing hint.
  EXPECT_EQ(reader.expected_packets(), in.size());

  const std::vector<PacketRecord> out = drain(reader);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(reader.malformed_packets(), 0u);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].key, in[i].key) << "packet " << i;
    EXPECT_EQ(out[i].bytes, in[i].bytes) << "packet " << i;
    EXPECT_EQ(out[i].fin(), in[i].fin()) << "packet " << i;
    // Pcap timestamps are microsecond-quantized.
    EXPECT_NEAR(out[i].ts_sec, in[i].ts_sec, 1e-6) << "packet " << i;
  }
}

TEST(Trace, FileRoundTrip) {
  const std::vector<PacketRecord> in = sample_packets();
  const std::string path =
      ::testing::TempDir() + "/netmon_ingest_trace_test.pcap";
  write_trace(path, in);
  TraceReader reader = TraceReader::from_file(path, {.link = 1});
  EXPECT_EQ(reader.frame_count(), in.size());
  EXPECT_EQ(drain(reader).size(), in.size());
  std::remove(path.c_str());
}

TEST(Trace, EmptyTraceIsValidAndExhausted) {
  TraceReader reader(encode_trace({}));
  EXPECT_EQ(reader.frame_count(), 0u);
  EXPECT_TRUE(reader.exhausted());
  PacketRecord buf[1];
  EXPECT_EQ(reader.next_batch(buf, 1), 0u);
}

// --- framing rejection (the reader must throw, never over-read) ---

TEST(Trace, RejectsTruncatedGlobalHeader) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  bytes.resize(10);
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  bytes[0] ^= 0xff;
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsWrongLinkType) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  bytes[20] = 1;  // network field -> LINKTYPE_ETHERNET
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsTruncatedFrameHeader) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  bytes.resize(24 + 8);  // half a record header after the global header
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsOverlongCaplen) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  // First frame's incl_len claims far more payload than the file holds.
  const std::size_t incl_len_off = 24 + 8;
  bytes[incl_len_off + 0] = 0xff;
  bytes[incl_len_off + 1] = 0xff;
  bytes[incl_len_off + 2] = 0x00;
  bytes[incl_len_off + 3] = 0x00;
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsCaplenAboveSnaplen) {
  // A caplen that fits the buffer but exceeds the declared snaplen.
  std::vector<PacketRecord> one(1);
  one[0].key.proto = 17;
  one[0].bytes = 40;
  std::vector<std::uint8_t> bytes = encode_trace(one);
  bytes[16] = 4;  // snaplen := 4 (little-endian low byte)
  bytes[17] = bytes[18] = bytes[19] = 0;
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

TEST(Trace, RejectsTruncatedPayload) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_packets());
  bytes.resize(bytes.size() - 5);  // cut into the last frame's payload
  EXPECT_THROW(TraceReader{std::move(bytes)}, Error);
}

// --- fuzz: arbitrary inputs either throw Error or replay sanely ---

TEST(Trace, FuzzRandomBuffersNeverCrash) {
  Rng rng(123);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> bytes(rng.below(512));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      TraceReader reader(std::move(bytes));
      const std::vector<PacketRecord> out = drain(reader);
      EXPECT_LE(out.size(), reader.frame_count());
      EXPECT_LE(out.size(), reader.expected_packets());
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST(Trace, FuzzBitFlipsOnValidTrace) {
  const std::vector<std::uint8_t> valid = encode_trace(sample_packets());
  Rng rng(321);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    const std::size_t pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      TraceReader reader(std::move(bytes));
      // Framing survived the flip: replay must complete and account for
      // every frame as either delivered or malformed.
      const std::vector<PacketRecord> out = drain(reader);
      EXPECT_EQ(out.size() + reader.malformed_packets(),
                reader.frame_count());
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST(Trace, FuzzTruncationsOnValidTrace) {
  const std::vector<std::uint8_t> valid = encode_trace(sample_packets());
  for (std::size_t len = 0; len < valid.size(); ++len) {
    std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + len);
    try {
      TraceReader reader(std::move(bytes));
      drain(reader);  // truncation on an exact frame boundary is valid
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

// --- pacing ---

TEST(Trace, ManualClockPacingReleasesOnSchedule) {
  std::vector<PacketRecord> in;
  for (int i = 0; i < 4; ++i) {
    PacketRecord p;
    p.key.proto = 17;
    p.bytes = 40;
    p.ts_sec = static_cast<double>(i);  // t = 0, 1, 2, 3
    in.push_back(p);
  }
  obs::ManualClock clock;
  TraceReader reader(encode_trace(in),
                     {.link = 0, .speed = 1.0, .clock = &clock});
  PacketRecord buf[8];
  // At elapsed 0 only the t=0 packet is due.
  EXPECT_EQ(reader.next_batch(buf, 8), 1u);
  EXPECT_EQ(reader.next_batch(buf, 8), 0u);
  EXPECT_FALSE(reader.exhausted());
  // +2s of clock at speed 1 releases t=1 and t=2.
  clock.advance(2s);
  EXPECT_EQ(reader.next_batch(buf, 8), 2u);
  EXPECT_EQ(reader.next_batch(buf, 8), 0u);
  clock.advance(10s);
  EXPECT_EQ(reader.next_batch(buf, 8), 1u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Trace, DoubleSpeedHalvesTheWait) {
  std::vector<PacketRecord> in(2);
  in[0].key.proto = 17;
  in[0].bytes = 40;
  in[1] = in[0];
  in[1].ts_sec = 4.0;
  obs::ManualClock clock;
  TraceReader reader(encode_trace(in),
                     {.link = 0, .speed = 2.0, .clock = &clock});
  PacketRecord buf[4];
  EXPECT_EQ(reader.next_batch(buf, 4), 1u);
  clock.advance(2s);  // 2 clock-seconds * speed 2 = 4 trace-seconds
  EXPECT_EQ(reader.next_batch(buf, 4), 1u);
  EXPECT_TRUE(reader.exhausted());
}

}  // namespace
}  // namespace netmon::ingest
