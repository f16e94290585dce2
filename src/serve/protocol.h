// `wcp-stream 1` — the versioned length-prefixed wire protocol of the
// streaming detection service.
//
// A connection is a byte stream of frames, every frame:
//
//   u32  length      bytes that FOLLOW the length field (9..1 MiB)
//   u64  seq         per-direction sequence number, starting at 0
//   u8   type        FrameType
//   ...  payload     type-specific, little-endian throughout
//
// Client -> server frame grammar (one session):
//
//   HELLO      magic "wcpstrm1" (8 bytes), u32 version=1, u32 slots,
//              u32 num_predicates (1..64)
//   SUBSCRIBE  u32 sub_id, u8 algo (StreamAlgo), u32 pred_index,
//              i64 max_cuts (<0: server budget; lattice only; clamped
//              to the server budget when that is >= 0)
//   SNAPSHOT   u32 slot, u64 pred_mask (bit j = predicate j's local value),
//              slots x u64 vector-clock components (own component = the
//              1-based state index)
//   EOS        u32 slot, or kAllSlots
//   FINISH     (empty; implies EOS on every open slot)
//
// Server -> client:
//
//   ACK        u64 next_seq (cumulative: all frames below it were applied)
//   VERDICT    u32 sub_id, u8 flags (bit0 detected, bit1 truncated),
//              u32 len, len x u64 cut components
//   STATS      u32 count, count x i64 (ServeStats::values() order)
//   ERROR      u32 len, len bytes of message
//
// Validation discipline matches `wcp-tracebin`: every malformed or
// out-of-protocol frame fails with an std::invalid_argument whose message
// starts with "wcp-stream parse error:" and names the offending frame —
// malformed input never silently parses as zeros. Structural validation
// (lengths, ranges, magic, version) happens in decode_frame; semantic
// stream validation (slot ranges against HELLO, clock monotonicity) happens
// in the Session, with the same error prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "serve/serve_stats.h"

namespace wcp::serve {

inline constexpr char kStreamMagic[8] = {'w', 'c', 'p', 's',
                                         't', 'r', 'm', '1'};
inline constexpr std::uint32_t kStreamVersion = 1;
/// Hard cap on `length`: bounds a snapshot to ~128k slots, far beyond any
/// real predicate width, and keeps a corrupt length from allocating GiBs.
inline constexpr std::uint32_t kMaxFrameLength = 1u << 20;
/// Frame bytes after the length field before any payload (seq + type).
inline constexpr std::uint32_t kFrameOverhead = 9;
/// EOS slot value meaning "every slot".
inline constexpr std::uint32_t kAllSlots = 0xFFFFFFFFu;
inline constexpr std::uint32_t kMaxSlots = 4096;
inline constexpr std::uint32_t kMaxPredicates = 64;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kSubscribe = 2,
  kSnapshot = 3,
  kEos = 4,
  kFinish = 5,
  kAck = 6,
  kVerdict = 7,
  kStats = 8,
  kError = 9,
};

[[nodiscard]] const char* to_string(FrameType t);

enum class StreamAlgo : std::uint8_t {
  kToken = 1,
  kChecker = 2,
  kLatticeOnline = 3,
  kSlicer = 4,
};

[[nodiscard]] const char* to_string(StreamAlgo a);
/// Parses "token" / "checker" / "lattice-online" / "slicer"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] StreamAlgo stream_algo_from_string(const std::string& name);

struct HelloBody {
  std::uint32_t version = kStreamVersion;
  std::uint32_t slots = 0;
  std::uint32_t num_predicates = 1;
};

struct SubscribeBody {
  std::uint32_t sub_id = 0;
  StreamAlgo algo = StreamAlgo::kToken;
  std::uint32_t pred_index = 0;
  std::int64_t max_cuts = -1;
};

struct SnapshotBody {
  std::uint32_t slot = 0;
  std::uint64_t pred_mask = 0;
  std::vector<StateIndex> clock;
};

struct EosBody {
  std::uint32_t slot = kAllSlots;
};

struct AckBody {
  std::uint64_t next_seq = 0;
};

struct VerdictBody {
  std::uint32_t sub_id = 0;
  bool detected = false;
  bool truncated = false;
  std::vector<StateIndex> cut;
};

struct StatsBody {
  ServeStats stats;
};

struct ErrorBody {
  std::string message;
};

/// One decoded frame. Exactly the member matching `type` is meaningful.
struct Frame {
  std::uint64_t seq = 0;
  FrameType type = FrameType::kFinish;

  HelloBody hello;
  SubscribeBody subscribe;
  SnapshotBody snapshot;
  EosBody eos;
  AckBody ack;
  VerdictBody verdict;
  StatsBody stats;
  ErrorBody error;
};

// Frame constructors (seq is stamped by the sender).
[[nodiscard]] Frame make_hello(std::uint32_t slots,
                               std::uint32_t num_predicates);
[[nodiscard]] Frame make_subscribe(std::uint32_t sub_id, StreamAlgo algo,
                                   std::uint32_t pred_index,
                                   std::int64_t max_cuts = -1);
[[nodiscard]] Frame make_snapshot(std::uint32_t slot, std::uint64_t pred_mask,
                                  std::vector<StateIndex> clock);
[[nodiscard]] Frame make_eos(std::uint32_t slot = kAllSlots);
[[nodiscard]] Frame make_finish();
[[nodiscard]] Frame make_ack(std::uint64_t next_seq);
[[nodiscard]] Frame make_verdict(std::uint32_t sub_id, bool detected,
                                 bool truncated, std::vector<StateIndex> cut);
[[nodiscard]] Frame make_stats(const ServeStats& stats);
[[nodiscard]] Frame make_error(std::string message);

/// Serializes a frame, stamping `seq`, length prefix included.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& f,
                                                     std::uint64_t seq);

/// Parses one complete frame (length prefix included; `bytes` must be
/// exactly one frame). `snapshot_slots` > 0 enforces that width on SNAPSHOT
/// clocks (pass the HELLO value; 0 skips the check, e.g. before HELLO).
/// Throws std::invalid_argument ("wcp-stream parse error: ...") on any
/// structural violation.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> bytes,
                                 std::uint32_t snapshot_slots = 0);

/// Reads only the header of a complete frame — cheap peek used by the
/// resequencer to order raw frames before full decoding.
struct FrameHeader {
  std::uint32_t length = 0;  // bytes after the length field
  std::uint64_t seq = 0;
  FrameType type = FrameType::kFinish;
};
[[nodiscard]] FrameHeader peek_header(std::span<const std::uint8_t> bytes);

/// Reassembles frames from an arbitrary byte stream (the TCP transport):
/// feed() buffers bytes, next() pops one complete frame's raw bytes.
class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  /// One complete raw frame (length prefix included), or nullopt if more
  /// bytes are needed. Throws on an over-length or undersized header.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

}  // namespace wcp::serve
