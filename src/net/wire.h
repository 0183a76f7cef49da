// Wire protocol for the Shenjing serving tier (ROADMAP "wire-level serving
// tier"): a length-prefixed binary frame format shared by the TCP front-end
// (net::Frontend), the multi-process router (net::Router), the blocking
// client (net::Client) and the loadgen bench.
//
// Every message is one frame:
//
//   FrameHeader (24 bytes, little-endian, fixed):
//     u32 magic        'S''J''N''F' (0x534a4e46) — rejects non-protocol bytes
//     u16 version      kWireVersion; a mismatch is connection-fatal
//     u16 type         MsgType
//     u64 request_id   caller-chosen; responses echo it verbatim, so clients
//                      (and the router) can pipeline requests on one socket
//     u32 payload_len  bytes following the header (<= kMaxPayload)
//     u32 reserved     must be zero (room for flags/checksum)
//   payload            type-specific, encoded with WireWriter/WireReader
//
// Integers are little-endian regardless of host order; f32 tensor data is
// bit_cast through u32, so a tensor survives the wire bit-exactly — the
// loopback equivalence test (wire result == in-process Server::submit)
// depends on that.
//
// Malformed input (bad magic/version, oversized length, truncated payload,
// reserved bits set) throws WireError; servers answer with a kError frame
// and close the connection. FrameReader handles partial reads: feed() any
// byte granularity, next() yields complete frames.
#pragma once

#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/engine.h"
#include "tensor/tensor.h"

namespace sj::net {

/// Connection-fatal protocol violation (bad framing, bad payload encoding).
class WireError : public Error {
 public:
  using Error::Error;
};

inline constexpr u32 kWireMagic = 0x534a4e46;  // 'S' 'J' 'N' 'F'
inline constexpr u16 kWireVersion = 1;
/// Frames above this are rejected before buffering the payload — a garbage
/// length must not make the server allocate gigabytes.
inline constexpr u32 kMaxPayload = 16u << 20;
inline constexpr usize kHeaderSize = 24;

enum class MsgType : u16 {
  kSubmit = 1,        // c->s: u64 model_key, tensor
  kSubmitBatch = 2,   // c->s: u64 model_key, u32 count, count x tensor
  kResult = 3,        // s->c: u32 queue_wait_us, u32 exec_us, frame result
  kBatchResult = 4,   // s->c: u32 count, count x {u8 ok, result | error}
  kError = 5,         // s->c: u32 code, string message
  kPing = 6,          // c->s: empty
  kPong = 7,          // s->c: u8 accepting, u32 pending, u32 models
  kMetrics = 8,       // c->s: empty
  kMetricsResult = 9, // s->c: string (metrics_json dump)
  kInfo = 10,         // c->s: empty
  kInfoResult = 11,   // s->c: string (models/keys/input shapes, JSON)
  kSwapWeights = 12,  // c->s: u64 model_key, u64 seed
  kSwapResult = 13,   // s->c: u32 code (0 = ok), string message
};

enum class ErrCode : u32 {
  kBadFrame = 1,     // unparseable payload (the connection is closing)
  kUnknownType = 2,  // MsgType the server does not handle
  kUnknownModel = 3, // model key not served
  kBusy = 4,         // admission failed: server queue full
  kDraining = 5,     // server is draining; resubmit elsewhere
  kInternal = 6,     // exception while executing the frame
  kNoBackend = 7,    // router: no healthy backend serves the key
  kBackendLost = 8,  // router: backend died with this request in flight
};

struct FrameHeader {
  u32 magic = kWireMagic;
  u16 version = kWireVersion;
  u16 type = 0;
  u64 request_id = 0;
  u32 payload_len = 0;
  u32 reserved = 0;
};

/// One complete wire frame (header + owned payload bytes).
struct Frame {
  FrameHeader header;
  std::vector<u8> payload;
  MsgType type() const { return static_cast<MsgType>(header.type); }
};

// ---------------------------------------------------------------------------
// Byte codecs.
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8v(u8 v) { buf_.push_back(v); }
  void u16v(u16 v) { put(v, 2); }
  void u32v(u32 v) { put(v, 4); }
  void u64v(u64 v) { put(v, 8); }
  void i32v(i32 v) { u32v(static_cast<u32>(v)); }
  void i64v(i64 v) { u64v(static_cast<u64>(v)); }
  void f32v(float v) {
    u32 bits;
    std::memcpy(&bits, &v, 4);
    u32v(bits);
  }
  void str(const std::string& s);
  void bytes(const void* p, usize n);

  const std::vector<u8>& data() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  void put(u64 v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  std::vector<u8> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Reading
/// past the end (or leaving trailing bytes when the caller checks done())
/// throws WireError — a truncated payload must never decode silently.
class WireReader {
 public:
  WireReader(const u8* p, usize n) : p_(p), n_(n) {}
  explicit WireReader(const std::vector<u8>& v) : p_(v.data()), n_(v.size()) {}

  u8 u8v() { return static_cast<u8>(get(1)); }
  u16 u16v() { return static_cast<u16>(get(2)); }
  u32 u32v() { return static_cast<u32>(get(4)); }
  u64 u64v() { return get(8); }
  i32 i32v() { return static_cast<i32>(u32v()); }
  i64 i64v() { return static_cast<i64>(u64v()); }
  float f32v() {
    const u32 bits = u32v();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  std::string str();

  usize remaining() const { return n_ - off_; }
  bool done() const { return off_ == n_; }
  /// Throws WireError unless the payload was consumed exactly.
  void expect_done() const;

 private:
  u64 get(int n);
  const u8* p_;
  usize n_;
  usize off_ = 0;
};

// ---------------------------------------------------------------------------
// Frame encode / incremental decode.
// ---------------------------------------------------------------------------

/// Serializes header + payload into one contiguous buffer ready to write.
std::vector<u8> encode_frame(MsgType type, u64 request_id,
                             const std::vector<u8>& payload);

/// Encodes just a 24-byte header into `out`.
void encode_header(MsgType type, u64 request_id, u32 payload_len, u8 out[kHeaderSize]);

/// Parses and validates a header from exactly kHeaderSize bytes. Throws
/// WireError on bad magic, version mismatch, oversized payload_len, or
/// nonzero reserved bits.
FrameHeader decode_header(const u8* p);

/// Incremental frame reassembly: feed() arbitrary byte chunks (partial
/// headers, partial payloads, many frames at once); next() pops the earliest
/// complete frame. Header validation happens the moment 24 bytes are
/// available, so garbage input fails fast instead of waiting for a bogus
/// payload that will never arrive.
class FrameReader {
 public:
  void feed(const u8* data, usize n);
  /// Returns the next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();
  /// Bytes currently buffered (tests: reassembly bookkeeping).
  usize buffered() const { return buf_.size() - consumed_; }

 private:
  std::vector<u8> buf_;
  usize consumed_ = 0;               // parsed-off prefix, compacted lazily
  std::optional<FrameHeader> head_;  // validated header awaiting its payload
};

// ---------------------------------------------------------------------------
// Typed payload encode/decode.
// ---------------------------------------------------------------------------

/// Per-request server-side timing piggybacked on every kResult, so wire
/// clients can split their observed latency into queue-wait vs exec without
/// polling metrics_json (the loadgen's BENCH_net.json split).
struct WireTiming {
  u32 queue_wait_us = 0;
  u32 exec_us = 0;
};

struct PongInfo {
  bool accepting = true;
  u32 pending = 0;
  u32 models = 0;
};

inline constexpr u32 kMaxTensorDims = 8;

void encode_tensor(WireWriter& w, const Tensor& t);
Tensor decode_tensor(WireReader& r);

std::vector<u8> encode_submit(u64 model_key, const Tensor& frame);
std::vector<u8> encode_submit_batch(u64 model_key, std::span<const Tensor> frames);
void encode_result_payload(WireWriter& w, const WireTiming& t,
                           const sim::FrameResult& r);
std::vector<u8> encode_result(const WireTiming& t, const sim::FrameResult& r);
std::vector<u8> encode_error(ErrCode code, const std::string& message);
std::vector<u8> encode_pong(const PongInfo& p);
std::vector<u8> encode_swap(u64 model_key, u64 seed);
std::vector<u8> encode_status(u32 code, const std::string& message);  // kSwapResult
std::vector<u8> encode_string(const std::string& s);  // kMetricsResult / kInfoResult

struct SubmitMsg {
  u64 model_key = 0;
  Tensor frame;
};
struct SubmitBatchMsg {
  u64 model_key = 0;
  std::vector<Tensor> frames;
};
struct ResultMsg {
  WireTiming timing;
  sim::FrameResult result;
};
struct ErrorMsg {
  ErrCode code = ErrCode::kInternal;
  std::string message;
};
struct SwapMsg {
  u64 model_key = 0;
  u64 seed = 0;
};
struct StatusMsg {
  u32 code = 0;
  std::string message;
};

SubmitMsg decode_submit(const Frame& f);
SubmitBatchMsg decode_submit_batch(const Frame& f);
ResultMsg decode_result(const Frame& f);
sim::FrameResult decode_result_entry(WireReader& r);
ErrorMsg decode_error(const Frame& f);
PongInfo decode_pong(const Frame& f);
SwapMsg decode_swap(const Frame& f);
StatusMsg decode_status(const Frame& f);
std::string decode_string(const Frame& f);

const char* msg_type_name(MsgType t);
const char* err_code_name(ErrCode c);

}  // namespace sj::net
