#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "tdf/tdf.hpp"

namespace titan::tdf {

namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

/// Container-level damage: fatal under BOTH policies (without a sound
/// header and segment table there is nothing to salvage).
[[noreturn]] void fail(std::string_view file, TriageCode code, std::string detail) {
  throw IngestError{std::string{file}, 0, code, detail};
}

struct Container {
  std::string_view bytes;
  std::uint32_t version = 0;
  std::uint64_t table_offset = 0;
  std::vector<SegmentEntry> entries;  ///< table order
};

const unsigned char* as_bytes(std::string_view view) noexcept {
  return reinterpret_cast<const unsigned char*>(view.data());
}

/// Validate header + segment table; every failure names its damage class.
Container parse_container(std::string_view bytes, std::string_view file) {
  if (bytes.size() < kTdfHeaderSize) {
    fail(file, TriageCode::kTdfTruncated,
         "file of " + std::to_string(bytes.size()) + " bytes is shorter than the " +
             std::to_string(kTdfHeaderSize) + "-byte header");
  }
  const unsigned char* p = as_bytes(bytes);
  if (load_u64(p + kTdfMagicOffset) != kTdfMagic) {
    fail(file, TriageCode::kTdfBadMagic, "magic bytes are not 'TITANTDF'");
  }
  if (load_u32(p + kTdfEndianOffset) != kTdfEndianMarker) {
    fail(file, TriageCode::kTdfBadMagic,
         "endian marker mismatch (file not written little-endian?)");
  }
  Container c;
  c.bytes = bytes;
  c.version = load_u32(p + kTdfVersionOffset);
  if (c.version != kTdfVersion) {
    fail(file, TriageCode::kTdfVersionMismatch,
         "container version " + std::to_string(c.version) + ", this reader speaks v" +
             std::to_string(kTdfVersion));
  }
  c.table_offset = load_u64(p + kTdfTableOffsetOffset);
  const std::uint64_t count = load_u64(p + kTdfSegmentCountOffset);
  if (count > kTdfMaxSegments) {
    fail(file, TriageCode::kTdfFooterCorrupt,
         "implausible segment count " + std::to_string(count));
  }
  if (c.table_offset < kTdfHeaderSize) {
    fail(file, TriageCode::kTdfFooterCorrupt,
         "segment table offset " + std::to_string(c.table_offset) +
             " points into the header");
  }
  const std::uint64_t table_end = c.table_offset + count * kTdfEntrySize;
  if (table_end > bytes.size()) {
    fail(file, TriageCode::kTdfTruncated,
         "segment table claims bytes [" + std::to_string(c.table_offset) + ", " +
             std::to_string(table_end) + ") but the file holds " +
             std::to_string(bytes.size()) + " (truncated tail?)");
  }
  if (table_end < bytes.size()) {
    fail(file, TriageCode::kTdfFooterCorrupt,
         std::to_string(bytes.size() - table_end) + " trailing bytes after the segment table");
  }
  const auto table = bytes.substr(c.table_offset);
  if (tdf_checksum(table) != load_u64(p + kTdfTableChecksumOffset)) {
    fail(file, TriageCode::kTdfFooterCorrupt,
         "segment table bytes disagree with the header's table checksum");
  }
  c.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* e = as_bytes(table) + i * kTdfEntrySize;
    SegmentEntry entry;
    entry.kind = load_u32(e);
    entry.offset = load_u64(e + 8);
    entry.length = load_u64(e + 16);
    entry.rows = load_u64(e + 24);
    entry.checksum = load_u64(e + 32);
    if (entry.offset < kTdfHeaderSize || entry.offset > c.table_offset ||
        entry.length > c.table_offset - entry.offset) {
      fail(file, TriageCode::kTdfFooterCorrupt,
           "segment '" + std::string{segment_name(entry.kind)} + "' claims bytes outside [" +
               std::to_string(kTdfHeaderSize) + ", " + std::to_string(c.table_offset) + ")");
    }
    c.entries.push_back(entry);
  }
  return c;
}

[[nodiscard]] std::string_view segment_view(const Container& c, const SegmentEntry& entry) {
  return c.bytes.substr(static_cast<std::size_t>(entry.offset),
                        static_cast<std::size_t>(entry.length));
}

/// Sequential varint cursor over one segment body.
class Cursor {
 public:
  explicit Cursor(std::string_view body) noexcept
      : p_{as_bytes(body)}, end_{as_bytes(body) + body.size()} {}

  [[nodiscard]] bool read(std::uint64_t& out) noexcept {
    const auto n = read_varint(p_, end_, out);
    p_ += n;
    return n != 0;
  }
  [[nodiscard]] bool read_signed(std::int64_t& out) noexcept {
    std::uint64_t raw = 0;
    if (!read(raw)) return false;
    out = zigzag_decode(raw);
    return true;
  }
  [[nodiscard]] bool read_u64_fixed(std::uint64_t& out) noexcept {
    if (end_ - p_ < 8) return false;
    out = load_u64(p_);
    p_ += 8;
    return true;
  }
  [[nodiscard]] bool skip(std::size_t n) noexcept {
    if (remaining() < n) return false;
    p_ += n;
    return true;
  }
  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

/// Per-segment decode state shared by the column decoders.
struct DecodeContext {
  std::string_view file;
  IngestPolicy policy = IngestPolicy::kStrict;
  IngestReport* report = nullptr;

  /// Required-segment damage: fatal under both policies.
  [[noreturn]] void required(TriageCode code, std::string_view segment,
                             std::string detail) const {
    fail(file, code, "segment '" + std::string{segment} + "': " + detail);
  }

  /// Optional-segment damage: throws under kStrict; under kSalvage the
  /// segment is dropped and the report says so.  Returns false (= drop).
  bool optional_damage(TriageCode code, std::string_view segment, std::string detail) const {
    const auto full = "segment '" + std::string{segment} + "': " + detail;
    if (policy == IngestPolicy::kStrict) fail(file, code, full);
    report->add(file, 0, code, SalvageAction::kQuarantined, full + " -- segment dropped");
    return false;
  }
};

/// Verify one segment's checksum.  `required` selects the damage policy.
bool checksum_ok(const DecodeContext& ctx, const Container& c, const SegmentEntry& entry,
                 bool required) {
  const auto body = segment_view(c, entry);
  if (tdf_checksum(body) == entry.checksum) return true;
  const auto name = segment_name(entry.kind);
  if (required) {
    ctx.required(TriageCode::kTdfSegmentChecksum, name,
                 "content hash disagrees with the segment table's checksum");
  }
  return ctx.optional_damage(TriageCode::kTdfSegmentChecksum, name,
                             "content hash disagrees with the segment table's checksum");
}

struct Meta {
  stats::TimeSec period_begin = 0;
  stats::TimeSec period_end = 0;
  stats::TimeSec accounting_from = 0;
  std::uint64_t event_count = 0;
  std::uint64_t flags = 0;
  stats::TimeSec smi_taken_at = 0;
  std::string profile_name;  ///< empty when the container predates profiles
  std::uint64_t profile_hash = 0;
};

Meta decode_meta(const DecodeContext& ctx, std::string_view body) {
  if (body.size() < kTdfMetaSize) {
    ctx.required(TriageCode::kTdfSegmentCorrupt, "meta",
                 "body of " + std::to_string(body.size()) + " bytes, need " +
                     std::to_string(kTdfMetaSize));
  }
  const unsigned char* p = as_bytes(body);
  Meta meta;
  meta.period_begin = load_i64(p);
  meta.period_end = load_i64(p + 8);
  meta.accounting_from = load_i64(p + 16);
  meta.event_count = load_u64(p + 24);
  meta.flags = load_u64(p + 32);
  meta.smi_taken_at = load_i64(p + 40);
  // Fleet-profile extension (hash + name past the fixed prefix).  Bytes
  // beyond the name are tolerated: a future extension can append the same
  // way this one did.
  if (body.size() > kTdfMetaSize) {
    const unsigned char* q = p + kTdfMetaSize;
    const unsigned char* end = p + body.size();
    std::uint64_t name_len = 0;
    std::size_t used = 0;
    if (end - q >= 8) {
      meta.profile_hash = load_u64(q);
      q += 8;
      used = read_varint(q, end, name_len);
    }
    const auto avail = static_cast<std::size_t>(end - q);
    if (used == 0 || name_len > avail - used) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "meta",
                   "profile extension fails to decode");
    }
    meta.profile_name.assign(reinterpret_cast<const char*>(q + used),
                             static_cast<std::size_t>(name_len));
  }
  return meta;
}

std::vector<topology::NodeId> decode_node_dict(const DecodeContext& ctx,
                                               std::string_view body, std::uint64_t rows) {
  Cursor cur{body};
  std::uint64_t count = 0;
  if (!cur.read(count) || count != rows || count > body.size()) {
    ctx.required(TriageCode::kTdfSegmentCorrupt, "node_dict",
                 "entry count disagrees with the segment table");
  }
  std::vector<topology::NodeId> dict;
  dict.reserve(static_cast<std::size_t>(count));
  std::int64_t prev = -1;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t node = 0;
    std::uint64_t name_len = 0;
    if (!cur.read_signed(node) || !cur.read(name_len) || name_len > 64 ||
        name_len > cur.remaining()) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "node_dict",
                   "entry " + std::to_string(i) + " fails to decode");
    }
    if (node <= prev || node >= topology::kNodeSlots) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "node_dict",
                   "node ids must be strictly increasing and within [0, " +
                       std::to_string(topology::kNodeSlots) + ")");
    }
    prev = node;
    // cname bytes are redundant with the node id (kept for foreign
    // tooling); skip them.
    if (!cur.skip(static_cast<std::size_t>(name_len))) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "node_dict",
                   "entry " + std::to_string(i) + " fails to decode");
    }
    dict.push_back(static_cast<topology::NodeId>(node));
  }
  if (!cur.exhausted()) {
    ctx.required(TriageCode::kTdfSegmentCorrupt, "node_dict", "trailing bytes after entries");
  }
  return dict;
}

/// Decode the jobs segment into `out`.  Returns false when the segment
/// was dropped under salvage (out left empty).
bool decode_jobs(const DecodeContext& ctx, std::string_view body, std::uint64_t rows,
                 std::vector<logsim::JobLogRecord>& out) {
  const auto damage = [&](std::string detail) {
    out.clear();
    return ctx.optional_damage(TriageCode::kTdfSegmentCorrupt, "jobs", std::move(detail));
  };
  Cursor cur{body};
  std::uint64_t count = 0;
  std::uint64_t user_count = 0;
  if (!cur.read(count) || count != rows || count > body.size() || !cur.read(user_count) ||
      user_count > body.size()) {
    return damage("record/user counts fail to decode");
  }
  std::vector<xid::UserId> users;
  users.reserve(static_cast<std::size_t>(user_count));
  std::int64_t prev_user = 0;
  for (std::uint64_t i = 0; i < user_count; ++i) {
    std::int64_t delta = 0;
    if (!cur.read_signed(delta)) return damage("user dictionary fails to decode");
    prev_user += delta;
    if (prev_user < std::numeric_limits<xid::UserId>::min() ||
        prev_user > std::numeric_limits<xid::UserId>::max()) {
      return damage("user id out of range");
    }
    users.push_back(static_cast<xid::UserId>(prev_user));
  }
  out.reserve(static_cast<std::size_t>(count));
  std::int64_t prev_id = 0;
  std::int64_t prev_start = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    logsim::JobLogRecord rec;
    std::int64_t id_delta = 0;
    std::uint64_t user_index = 0;
    std::int64_t start_delta = 0;
    std::int64_t duration = 0;
    std::uint64_t node_count = 0;
    std::uint64_t bits[3] = {0, 0, 0};
    if (!cur.read_signed(id_delta) || !cur.read(user_index) || user_index >= users.size() ||
        !cur.read_signed(start_delta) || !cur.read_signed(duration) ||
        !cur.read(node_count) || !cur.read_u64_fixed(bits[0]) ||
        !cur.read_u64_fixed(bits[1]) || !cur.read_u64_fixed(bits[2])) {
      return damage("record " + std::to_string(i) + " fails to decode");
    }
    prev_id += id_delta;
    prev_start += start_delta;
    rec.id = prev_id;
    rec.user = users[static_cast<std::size_t>(user_index)];
    rec.start = prev_start;
    rec.end = prev_start + duration;
    rec.node_count = static_cast<std::size_t>(node_count);
    rec.gpu_core_hours = std::bit_cast<double>(bits[0]);
    rec.max_memory_gb = std::bit_cast<double>(bits[1]);
    rec.total_memory_gb = std::bit_cast<double>(bits[2]);
    out.push_back(rec);
  }
  if (!cur.exhausted()) return damage("trailing bytes after records");
  return true;
}

/// Decode the smi segment.  Returns false when dropped under salvage.
bool decode_smi(const DecodeContext& ctx, std::string_view body, std::uint64_t rows,
                logsim::SmiSnapshot& out) {
  const auto damage = [&](std::string detail) {
    out.records.clear();
    return ctx.optional_damage(TriageCode::kTdfSegmentCorrupt, "smi", std::move(detail));
  };
  Cursor cur{body};
  std::uint64_t count = 0;
  if (!cur.read(count) || count != rows || count > body.size()) {
    return damage("record count fails to decode");
  }
  out.records.reserve(static_cast<std::size_t>(count));
  std::int64_t prev_node = 0;
  std::int64_t prev_serial = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    logsim::SmiCardRecord rec;
    std::int64_t node_delta = 0;
    std::int64_t serial_delta = 0;
    std::uint64_t temp_bits = 0;
    if (!cur.read_signed(node_delta) || !cur.read_signed(serial_delta) ||
        !cur.read(rec.sbe_total) || !cur.read(rec.dbe_total) || !cur.read(rec.sbe_volatile) ||
        !cur.read(rec.dbe_volatile) || !cur.read(rec.retired_pages_sbe) ||
        !cur.read(rec.retired_pages_dbe) || !cur.read_u64_fixed(temp_bits)) {
      return damage("record " + std::to_string(i) + " fails to decode");
    }
    prev_node += node_delta;
    prev_serial += serial_delta;
    if (prev_node < 0 || prev_node >= topology::kNodeSlots) {
      return damage("record " + std::to_string(i) + " names an out-of-range node");
    }
    rec.node = static_cast<topology::NodeId>(prev_node);
    rec.serial = static_cast<xid::CardId>(prev_serial);
    rec.temperature_f = std::bit_cast<double>(temp_bits);
    out.records.push_back(rec);
  }
  if (!cur.exhausted()) return damage("trailing bytes after records");
  return true;
}

/// Index the table by known kind; duplicates are table damage, unknown
/// kinds are forward-compatible (skipped with an ignored diagnostic).
std::array<const SegmentEntry*, kTdfSegmentKindCount> index_segments(
    const Container& c, const DecodeContext& ctx) {
  std::array<const SegmentEntry*, kTdfSegmentKindCount> by_kind{};
  for (const auto& entry : c.entries) {
    if (entry.kind >= kTdfSegmentKindCount) {
      ctx.report->add(ctx.file, 0, TriageCode::kTdfUnknownSegment, SalvageAction::kIgnored,
                      "unknown segment kind " + std::to_string(entry.kind) + " skipped");
      continue;
    }
    if (by_kind[entry.kind] != nullptr) {
      fail(ctx.file, TriageCode::kTdfFooterCorrupt,
           "duplicate segment '" + std::string{segment_name(entry.kind)} + "'");
    }
    by_kind[entry.kind] = &entry;
  }
  return by_kind;
}

const SegmentEntry* require_segment(
    const std::array<const SegmentEntry*, kTdfSegmentKindCount>& by_kind, SegmentKind kind,
    const DecodeContext& ctx) {
  const auto* entry = by_kind[static_cast<std::size_t>(kind)];
  if (entry == nullptr) {
    fail(ctx.file, TriageCode::kTdfFooterCorrupt,
         "required segment '" + std::string{segment_name(static_cast<std::uint32_t>(kind))} +
             "' is missing");
  }
  return entry;
}

/// The streaming decode core.  open() validates everything the event
/// stream depends on -- container, meta, node dictionary, and every event
/// column's checksum, row count and body-size precondition -- then
/// next_window() decodes rows incrementally from the (borrowed) bytes.
/// Both the whole-file decode_tdf and the public SegmentReader run on
/// this struct, so the two paths cannot drift apart in validation
/// semantics.
struct EventStream {
  DecodeContext ctx;
  Container c;
  std::array<const SegmentEntry*, kTdfSegmentKindCount> by_kind{};
  Meta meta;
  std::vector<topology::NodeId> dict;
  Cursor time_cur{std::string_view{}};
  Cursor node_cur{std::string_view{}};
  const unsigned char* kind_col = nullptr;
  const unsigned char* structure_col = nullptr;
  stats::TimeSec prev_time = 0;
  std::uint64_t rows_done = 0;

  void open(std::string_view bytes, std::string_view file, IngestPolicy policy,
            IngestReport* report) {
    ctx = DecodeContext{file, policy, report};
    c = parse_container(bytes, file);
    by_kind = index_segments(c, ctx);

    const auto* meta_entry = require_segment(by_kind, SegmentKind::kMeta, ctx);
    (void)checksum_ok(ctx, c, *meta_entry, /*required=*/true);
    meta = decode_meta(ctx, segment_view(c, *meta_entry));

    const auto* dict_entry = require_segment(by_kind, SegmentKind::kNodeDict, ctx);
    (void)checksum_ok(ctx, c, *dict_entry, /*required=*/true);
    dict = decode_node_dict(ctx, segment_view(c, *dict_entry), dict_entry->rows);

    const auto event_body = [&](SegmentKind kind) {
      const auto* entry = require_segment(by_kind, kind, ctx);
      (void)checksum_ok(ctx, c, *entry, /*required=*/true);
      if (entry->rows != meta.event_count) {
        ctx.required(TriageCode::kTdfSegmentCorrupt,
                     segment_name(static_cast<std::uint32_t>(kind)),
                     "row count disagrees with the meta segment's event count");
      }
      return segment_view(c, *entry);
    };
    const auto time_body = event_body(SegmentKind::kEventTime);
    if (meta.event_count > time_body.size()) {  // every delta takes >= one byte
      ctx.required(TriageCode::kTdfSegmentCorrupt, "event_time",
                   "row count exceeds the body size");
    }
    time_cur = Cursor{time_body};
    const auto node_body = event_body(SegmentKind::kEventNode);
    if (meta.event_count > node_body.size()) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "event_node",
                   "row count exceeds the body size");
    }
    node_cur = Cursor{node_body};
    const auto kind_body = event_body(SegmentKind::kEventKind);
    if (kind_body.size() != meta.event_count) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "event_kind",
                   "body size disagrees with the row count");
    }
    kind_col = as_bytes(kind_body);
    const auto structure_body = event_body(SegmentKind::kEventStructure);
    if (structure_body.size() != meta.event_count) {
      ctx.required(TriageCode::kTdfSegmentCorrupt, "event_structure",
                   "body size disagrees with the row count");
    }
    structure_col = as_bytes(structure_body);
  }

  std::size_t next_window(EventWindow& out, std::size_t max_rows) {
    out.times.clear();
    out.nodes.clear();
    out.kinds.clear();
    out.structures.clear();
    const std::uint64_t remaining = meta.event_count - rows_done;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, max_rows));
    if (n == 0) return 0;
    out.times.reserve(n);
    out.nodes.reserve(n);
    out.kinds.reserve(n);
    out.structures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t row = rows_done + i;
      std::int64_t delta = 0;
      if (!time_cur.read_signed(delta)) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_time",
                     "timestamp " + std::to_string(row) + " fails to decode");
      }
      prev_time += delta;
      out.times.push_back(prev_time);
      std::uint64_t index = 0;
      if (!node_cur.read(index) || index >= dict.size()) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_node",
                     "row " + std::to_string(row) + " holds an out-of-range dictionary index");
      }
      out.nodes.push_back(dict[static_cast<std::size_t>(index)]);
      const unsigned char kind_raw = kind_col[row];
      if (kind_raw >= xid::kErrorKindCount) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_kind",
                     "row " + std::to_string(row) + " holds out-of-range value " +
                         std::to_string(kind_raw));
      }
      out.kinds.push_back(static_cast<xid::ErrorKind>(kind_raw));
      const unsigned char structure_raw = structure_col[row];
      if (structure_raw >= xid::kMemoryStructureCount) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_structure",
                     "row " + std::to_string(row) + " holds out-of-range value " +
                         std::to_string(structure_raw));
      }
      out.structures.push_back(static_cast<xid::MemoryStructure>(structure_raw));
    }
    rows_done += n;
    if (rows_done == meta.event_count) {
      if (!time_cur.exhausted()) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_time",
                     "trailing bytes after rows");
      }
      if (!node_cur.exhausted()) {
        ctx.required(TriageCode::kTdfSegmentCorrupt, "event_node",
                     "trailing bytes after rows");
      }
    }
    return n;
  }

  bool read_jobs(std::vector<logsim::JobLogRecord>& out) {
    out.clear();
    if ((meta.flags & kTdfFlagJobs) == 0) return false;
    const auto* entry = by_kind[static_cast<std::size_t>(SegmentKind::kJobs)];
    if (entry == nullptr) {
      return ctx.optional_damage(TriageCode::kTdfSegmentCorrupt, "jobs",
                                 "meta claims a jobs segment but none is present");
    }
    if (!checksum_ok(ctx, c, *entry, /*required=*/false)) return false;
    return decode_jobs(ctx, segment_view(c, *entry), entry->rows, out);
  }

  bool read_smi(logsim::SmiSnapshot& out) {
    out.records.clear();
    out.taken_at = meta.smi_taken_at;
    if ((meta.flags & kTdfFlagSmi) == 0) return false;
    const auto* entry = by_kind[static_cast<std::size_t>(SegmentKind::kSmi)];
    if (entry == nullptr) {
      return ctx.optional_damage(TriageCode::kTdfSegmentCorrupt, "smi",
                                 "meta claims an smi segment but none is present");
    }
    if (!checksum_ok(ctx, c, *entry, /*required=*/false)) return false;
    return decode_smi(ctx, segment_view(c, *entry), entry->rows, out);
  }

  [[nodiscard]] std::size_t known_segment_count() const noexcept {
    std::size_t count = 0;
    for (const auto* entry : by_kind) count += entry != nullptr ? 1 : 0;
    return count;
  }
};

}  // namespace

MappedFile::MappedFile(const fs::path& path, std::uint64_t fallback_cap) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error{"MappedFile: cannot open " + path.string()};
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error{"MappedFile: cannot stat " + path.string()};
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ != 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      data_ = map;
    }
  }
  if (data_ == nullptr) {
    // Fallback (mmap unavailable or empty file): plain read -- but a
    // bounded one.  Heap-slurping an arbitrarily large container would
    // silently void the out-of-core RSS contract, so past the cap the
    // damage gets a name instead.
    if (fallback_cap != 0 && size_ > fallback_cap) {
      ::close(fd);
      throw IngestError{path.filename().string(), 0, TriageCode::kTdfMmapUnavailable,
                        std::to_string(size_) +
                            "-byte container cannot be memory-mapped and exceeds the " +
                            std::to_string(fallback_cap) + "-byte fallback read cap"};
    }
    fallback_.resize(size_);
    std::size_t got = 0;
    while (got < size_) {
      const ::ssize_t n = ::read(fd, fallback_.data() + got, size_ - got);
      if (n <= 0) {
        ::close(fd);
        throw std::runtime_error{"MappedFile: short read from " + path.string()};
      }
      got += static_cast<std::size_t>(n);
    }
    data_ = fallback_.data();
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

TdfDataset decode_tdf(std::string_view bytes, std::string_view file, IngestPolicy policy,
                      IngestReport& report) {
  EventStream stream;
  stream.open(bytes, file, policy, &report);

  TdfDataset data;
  data.period_begin = stream.meta.period_begin;
  data.period_end = stream.meta.period_end;
  data.accounting_from = stream.meta.accounting_from;
  data.profile_name = stream.meta.profile_name;
  data.profile_hash = stream.meta.profile_hash;

  // Whole-file decode: one window spanning every row, moved into place.
  EventWindow window;
  if (stream.next_window(window, static_cast<std::size_t>(stream.meta.event_count)) > 0) {
    data.times = std::move(window.times);
    data.nodes = std::move(window.nodes);
    data.kinds = std::move(window.kinds);
    data.structures = std::move(window.structures);
  }

  // Optional segments: meta flags are authoritative; damage drops the
  // segment under salvage and throws under strict.
  data.has_jobs = stream.read_jobs(data.jobs);
  data.has_smi = stream.read_smi(data.snapshot);
  return data;
}

TdfDataset read_tdf(const fs::path& path, IngestPolicy policy, IngestReport& report) {
  const MappedFile file{path, kTdfMaxFallbackBytes};
  return decode_tdf(file.bytes(), path.filename().string(), policy, report);
}

struct SegmentReader::Impl {
  std::string name;     ///< diagnostics file name; ctx.file points here
  MappedFile file;
  EventStream stream;
  std::size_t window_rows;

  Impl(const fs::path& path, std::size_t rows)
      : name{path.filename().string()}, file{path, kTdfMaxFallbackBytes}, window_rows{rows} {}
};

SegmentReader::SegmentReader(const fs::path& path, IngestPolicy policy, IngestReport& report,
                             std::size_t window_rows) {
  if (window_rows == 0) {
    throw std::invalid_argument{"SegmentReader: window_rows must be positive"};
  }
  impl_ = std::make_unique<Impl>(path, window_rows);
  impl_->stream.open(impl_->file.bytes(), impl_->name, policy, &report);
}

SegmentReader::~SegmentReader() = default;
SegmentReader::SegmentReader(SegmentReader&&) noexcept = default;
SegmentReader& SegmentReader::operator=(SegmentReader&&) noexcept = default;

const std::string& SegmentReader::file_name() const noexcept { return impl_->name; }
std::uint64_t SegmentReader::file_bytes() const noexcept {
  return impl_->file.bytes().size();
}
bool SegmentReader::mapped() const noexcept { return impl_->file.mapped(); }
std::uint64_t SegmentReader::event_count() const noexcept {
  return impl_->stream.meta.event_count;
}
std::uint64_t SegmentReader::rows_decoded() const noexcept {
  return impl_->stream.rows_done;
}
stats::TimeSec SegmentReader::period_begin() const noexcept {
  return impl_->stream.meta.period_begin;
}
stats::TimeSec SegmentReader::period_end() const noexcept {
  return impl_->stream.meta.period_end;
}
stats::TimeSec SegmentReader::accounting_from() const noexcept {
  return impl_->stream.meta.accounting_from;
}
stats::TimeSec SegmentReader::smi_taken_at() const noexcept {
  return impl_->stream.meta.smi_taken_at;
}
const std::string& SegmentReader::profile_name() const noexcept {
  return impl_->stream.meta.profile_name;
}
std::uint64_t SegmentReader::profile_hash() const noexcept {
  return impl_->stream.meta.profile_hash;
}
bool SegmentReader::has_jobs() const noexcept {
  return (impl_->stream.meta.flags & kTdfFlagJobs) != 0;
}
bool SegmentReader::has_smi() const noexcept {
  return (impl_->stream.meta.flags & kTdfFlagSmi) != 0;
}
std::size_t SegmentReader::segment_count() const noexcept {
  return impl_->stream.known_segment_count();
}

std::size_t SegmentReader::next_window(EventWindow& out) {
  return impl_->stream.next_window(out, impl_->window_rows);
}

bool SegmentReader::read_jobs(std::vector<logsim::JobLogRecord>& out) {
  return impl_->stream.read_jobs(out);
}

bool SegmentReader::read_smi(logsim::SmiSnapshot& out) {
  return impl_->stream.read_smi(out);
}

EventWindow merge_event_streams(std::span<SegmentReader> readers) {
  std::uint64_t total = 0;
  for (const auto& reader : readers) total += reader.event_count();
  EventWindow out;
  out.times.reserve(static_cast<std::size_t>(total));
  out.nodes.reserve(static_cast<std::size_t>(total));
  out.kinds.reserve(static_cast<std::size_t>(total));
  out.structures.reserve(static_cast<std::size_t>(total));

  struct Cursor {
    EventWindow window;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cursors(readers.size());
  // True when the cursor points at a decoded row (refilling the window
  // from the reader as needed).
  const auto ready = [&](std::size_t s) -> bool {
    auto& cur = cursors[s];
    if (cur.pos < cur.window.size()) return true;
    cur.pos = 0;
    return readers[s].next_window(cur.window) > 0;
  };

  struct Head {
    stats::TimeSec time = 0;
    std::uint32_t shard = 0;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap{later};
  for (std::size_t s = 0; s < readers.size(); ++s) {
    if (ready(s)) heap.push(Head{cursors[s].window.times[0], static_cast<std::uint32_t>(s)});
  }
  while (!heap.empty()) {
    const Head top = heap.top();
    heap.pop();
    auto& cur = cursors[top.shard];
    // The head row goes first, then every row after it that still sorts
    // before the best other head: the other heads stay put while this
    // reader advances, so this is exactly the per-row merge's choice.
    const std::optional<Head> bound =
        heap.empty() ? std::nullopt : std::optional<Head>{heap.top()};
    std::size_t end = cur.pos + 1;
    for (;;) {
      while (end < cur.window.size() &&
             (!bound || later(*bound, Head{cur.window.times[end], top.shard}))) {
        ++end;
      }
      const auto from = static_cast<std::ptrdiff_t>(cur.pos);
      const auto to = static_cast<std::ptrdiff_t>(end);
      out.times.insert(out.times.end(), cur.window.times.begin() + from,
                       cur.window.times.begin() + to);
      out.nodes.insert(out.nodes.end(), cur.window.nodes.begin() + from,
                       cur.window.nodes.begin() + to);
      out.kinds.insert(out.kinds.end(), cur.window.kinds.begin() + from,
                       cur.window.kinds.begin() + to);
      out.structures.insert(out.structures.end(), cur.window.structures.begin() + from,
                            cur.window.structures.begin() + to);
      cur.pos = end;
      // A run that reaches the end of the window continues into the next.
      if (end < cur.window.size() || !ready(top.shard)) break;
      end = 0;
    }
    if (ready(top.shard)) heap.push(Head{cur.window.times[cur.pos], top.shard});
  }
  return out;
}

ContainerRoster container_roster(const fs::path& dir, const ingest::ManifestIngest* manifest) {
  ContainerRoster roster;
  const std::string mono{kTdfFileName};
  std::size_t on_disk = 0;
  while (fs::exists(dir / shard_file_name(on_disk))) ++on_disk;

  // With a manifest only the containers it claims are read; without one
  // the directory is probed (a dataset.tdf before shards).
  const auto unclaimed = [&](std::string file) {
    roster.mismatches.push_back({std::move(file),
                                 "container on disk that the manifest does not claim (not read)",
                                 false, ingest::TriageCode::kUnclaimedContainer});
  };
  if (manifest != nullptr && !manifest->have_shards) {
    for (std::size_t s = 0; s < on_disk; ++s) unclaimed(shard_file_name(s));
    on_disk = 0;
  }
  if (fs::exists(dir / mono)) {
    if (manifest == nullptr || std::ranges::any_of(manifest->checksums, [&](const auto& claim) {
          return claim.first == mono;
        })) {
      roster.layout = ContainerRoster::Layout::kMonolithic;
      roster.files.push_back(mono);
      return roster;
    }
    unclaimed(mono);
  }
  if (on_disk == 0) return roster;
  roster.layout = ContainerRoster::Layout::kSharded;

  std::size_t take = on_disk;
  if (manifest != nullptr) {
    const auto claim = std::to_string(manifest->shards);
    if (manifest->shards < on_disk) {
      take = static_cast<std::size_t>(manifest->shards);
      for (std::size_t s = take; s < on_disk; ++s) {
        roster.mismatches.push_back(
            {shard_file_name(s),
             "shard container beyond the manifest's declared count of " + claim, false});
      }
    } else if (manifest->shards > on_disk) {
      roster.mismatches.push_back(
          {shard_file_name(on_disk),
           "manifest declares " + claim + " shards but the shard containers on disk stop at " +
               std::to_string(on_disk),
           true});
    }
  }
  for (std::size_t s = 0; s < take; ++s) roster.files.push_back(shard_file_name(s));
  return roster;
}

TdfInfo inspect_tdf(const fs::path& path) {
  const MappedFile file{path, kTdfMaxFallbackBytes};
  const auto name = path.filename().string();
  const Container c = parse_container(file.bytes(), name);

  TdfInfo info;
  info.version = kTdfVersion;
  info.file_bytes = file.bytes().size();
  for (const auto& entry : c.entries) {
    const auto body = segment_view(c, entry);
    if (tdf_checksum(body) != entry.checksum) {
      fail(name, TriageCode::kTdfSegmentChecksum,
           "segment '" + std::string{segment_name(entry.kind)} +
               "': content hash disagrees with the segment table's checksum");
    }
    info.segments.push_back(TdfInfo::Segment{entry.kind,
                                             std::string{segment_name(entry.kind)},
                                             entry.offset, entry.length, entry.rows,
                                             entry.checksum});
    if (entry.kind == static_cast<std::uint32_t>(SegmentKind::kMeta)) {
      const DecodeContext ctx{name, IngestPolicy::kStrict, nullptr};
      const Meta meta = decode_meta(ctx, body);
      info.event_count = meta.event_count;
      info.period_begin = meta.period_begin;
      info.period_end = meta.period_end;
      info.accounting_from = meta.accounting_from;
      info.profile_name = meta.profile_name;
      info.profile_hash = meta.profile_hash;
      info.has_jobs = (meta.flags & kTdfFlagJobs) != 0;
      info.has_smi = (meta.flags & kTdfFlagSmi) != 0;
    }
  }
  return info;
}

std::string TdfInfo::summary_text() const {
  std::string out;
  out += "tdf v" + std::to_string(version) + ": " + std::to_string(file_bytes) + " bytes, " +
         std::to_string(segments.size()) + " segments\n";
  out += "period      : [" + std::to_string(period_begin) + ", " + std::to_string(period_end) +
         ")  accounting_from " + std::to_string(accounting_from) + "\n";
  out += "events      : " + std::to_string(event_count) + "\n";
  if (!profile_name.empty()) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(profile_hash));
    out += "profile     : " + profile_name + " (fnv1a " + hex + ")\n";
  }
  out += "side data   : jobs " + std::string{has_jobs ? "yes" : "no"} + ", smi " +
         std::string{has_smi ? "yes" : "no"} + "\n";
  out += "segments    :\n";
  char row[160];
  for (const auto& seg : segments) {
    std::snprintf(row, sizeof(row), "  %-16s offset %10llu  length %10llu  rows %10llu  fnv1a %016llx\n",
                  seg.name.c_str(), static_cast<unsigned long long>(seg.offset),
                  static_cast<unsigned long long>(seg.length),
                  static_cast<unsigned long long>(seg.rows),
                  static_cast<unsigned long long>(seg.checksum));
    out += row;
  }
  return out;
}

}  // namespace titan::tdf
