#include "core/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/crc32.h"
#include "core/error.h"

namespace spiketune {

namespace testing {
std::function<void()> checkpoint_pre_rename_hook;
}  // namespace testing

namespace {
constexpr std::uint32_t kMagic = 0x53544b32;  // "STK2"
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kMaxRecords = 1u << 20;
constexpr std::uint64_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxRank = 16;
constexpr std::uint64_t kMaxMetaEntries = 1u << 12;
constexpr std::int64_t kMaxNumel = std::int64_t{1} << 33;

// ---- buffer-building writer -----------------------------------------------

template <typename T>
void append_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void append_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

void append_record(std::string& out, const NamedTensor& rec) {
  append_pod(out, static_cast<std::uint64_t>(rec.name.size()));
  append_bytes(out, rec.name.data(), rec.name.size());
  const auto& dims = rec.value.shape().dims();
  append_pod(out, static_cast<std::uint64_t>(dims.size()));
  for (auto d : dims) append_pod(out, static_cast<std::int64_t>(d));
  append_bytes(out, rec.value.data(),
               static_cast<std::size_t>(rec.value.numel()) * sizeof(float));
}

void append_string(std::string& out, const std::string& s) {
  append_pod(out, static_cast<std::uint64_t>(s.size()));
  append_bytes(out, s.data(), s.size());
}

void append_meta(std::string& out, const CheckpointMeta& meta) {
  const std::size_t begin = out.size();
  append_pod(out, meta.epoch);
  append_pod(out, meta.opt_step);
  append_pod(out, meta.encode_stream);
  append_pod(out, meta.eval_calls);
  append_pod(out, meta.loader_seed);
  append_pod(out, meta.config_fingerprint);
  append_pod(out, meta.lr_scale);
  append_pod(out, static_cast<std::uint64_t>(meta.extra.size()));
  for (const auto& [k, v] : meta.extra) {
    append_string(out, k);
    append_string(out, v);
  }
  append_pod(out, crc32(out.data() + begin, out.size() - begin));
}

// ---- bounds-checked reader ------------------------------------------------

struct Reader {
  const std::string& buf;
  const std::string& path;
  std::size_t pos = 0;

  std::size_t remaining() const { return buf.size() - pos; }

  const char* take(std::size_t n) {
    ST_REQUIRE(remaining() >= n, "truncated checkpoint: " + path);
    const char* p = buf.data() + pos;
    pos += n;
    return p;
  }

  template <typename T>
  T pod() {
    T v{};
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  std::string str(std::uint64_t max_len, const char* what) {
    const auto len = pod<std::uint64_t>();
    ST_REQUIRE(len <= max_len,
               std::string("absurd ") + what + " length in " + path);
    return std::string(take(len), len);
  }
};

NamedTensor read_record(Reader& in) {
  NamedTensor rec;
  rec.name = in.str(kMaxNameLen, "name");
  const auto rank = in.pod<std::uint64_t>();
  ST_REQUIRE(rank <= kMaxRank, "absurd tensor rank in " + in.path);
  std::vector<std::int64_t> dims(rank);
  // The product of the nonzero extents stays under kMaxNumel, so no partial
  // product Shape::numel forms can overflow, whatever order the zeros are in.
  std::int64_t nonzero_numel = 1;
  bool has_zero = false;
  for (auto& d : dims) {
    d = in.pod<std::int64_t>();
    ST_REQUIRE(d >= 0, "negative dimension in " + in.path);
    if (d == 0) {
      has_zero = true;
      continue;
    }
    ST_REQUIRE(nonzero_numel <= kMaxNumel / d,
               "absurd tensor size in " + in.path);
    nonzero_numel *= d;
  }
  const std::size_t bytes =
      has_zero ? 0 : static_cast<std::size_t>(nonzero_numel) * sizeof(float);
  // Checked before the tensor is allocated: a length field must not size an
  // allocation larger than the bytes actually present.
  const char* payload = in.take(bytes);
  Tensor value{Shape(std::move(dims))};
  if (bytes > 0) std::memcpy(value.data(), payload, bytes);
  rec.value = std::move(value);
  return rec;
}

CheckpointMeta read_meta(Reader& in) {
  const std::size_t begin = in.pos;
  CheckpointMeta meta;
  meta.present = true;
  meta.epoch = in.pod<std::int64_t>();
  meta.opt_step = in.pod<std::int64_t>();
  meta.encode_stream = in.pod<std::uint64_t>();
  meta.eval_calls = in.pod<std::uint64_t>();
  meta.loader_seed = in.pod<std::uint64_t>();
  meta.config_fingerprint = in.pod<std::uint64_t>();
  meta.lr_scale = in.pod<double>();
  const auto extra_count = in.pod<std::uint64_t>();
  ST_REQUIRE(extra_count <= kMaxMetaEntries,
             "absurd metadata entry count in " + in.path);
  for (std::uint64_t i = 0; i < extra_count; ++i) {
    std::string k = in.str(kMaxNameLen, "metadata key");
    meta.extra[k] = in.str(kMaxNameLen, "metadata value");
  }
  const std::size_t end = in.pos;
  const auto stored = in.pod<std::uint32_t>();
  ST_REQUIRE(stored == crc32(in.buf.data() + begin, end - begin),
             "metadata CRC mismatch in " + in.path);
  return meta;
}

void save_v2(const std::string& path, const std::vector<NamedTensor>& records,
             const CheckpointMeta* meta) {
  std::string buf;
  append_pod(buf, kMagic);
  append_pod(buf, kVersion);
  append_pod(buf, static_cast<std::uint8_t>(meta != nullptr));
  if (meta) append_meta(buf, *meta);
  append_pod(buf, static_cast<std::uint64_t>(records.size()));
  for (const auto& rec : records) {
    const std::size_t begin = buf.size();
    append_record(buf, rec);
    append_pod(buf, crc32(buf.data() + begin, buf.size() - begin));
  }
  // Whole-file CRC over everything before the trailer: catches truncation
  // even at record boundaries, where every per-record CRC still matches.
  append_pod(buf, crc32(buf.data(), buf.size()));
  atomic_write_file(path, buf);
}
}  // namespace

void atomic_write_file(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ST_REQUIRE(fd >= 0, "cannot open temp file for writing: " + tmp + " (" +
                          std::strerror(errno) + ")");
  auto fail = [&](const std::string& what) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error(what + ": " + tmp);
  };
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("checkpoint write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability point: the temp file's bytes reach disk before the rename
  // can publish them, so the final path never names a half-written file.
  if (::fsync(fd) != 0) fail("checkpoint fsync failed");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw Error("checkpoint close failed: " + tmp);
  }
  if (testing::checkpoint_pre_rename_hook) {
    try {
      testing::checkpoint_pre_rename_hook();
    } catch (...) {
      ::unlink(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("checkpoint rename failed: " + tmp + " -> " + path);
  }
  // Best-effort: persist the directory entry too, so the rename itself
  // survives power loss.  Failure here leaves a valid file either way.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records) {
  save_v2(path, records, nullptr);
}

void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records,
                     const CheckpointMeta& meta) {
  save_v2(path, records, &meta);
}

Checkpoint load_checkpoint_full(const std::string& path) {
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    ST_REQUIRE(in.good(), "cannot open checkpoint: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    ST_REQUIRE(!in.bad(), "cannot read checkpoint: " + path);
    buf = std::move(ss).str();
  }
  Reader in{buf, path};
  ST_REQUIRE(in.pod<std::uint32_t>() == kMagic,
             "not a spiketune checkpoint: " + path);
  ST_REQUIRE(in.pod<std::uint32_t>() == kVersion,
             "unsupported checkpoint version: " + path);
  // Verify the whole-file CRC before trusting any length field.
  ST_REQUIRE(buf.size() >= in.pos + sizeof(std::uint32_t),
             "truncated checkpoint: " + path);
  std::uint32_t stored = 0;
  std::memcpy(&stored, buf.data() + buf.size() - sizeof(stored),
              sizeof(stored));
  ST_REQUIRE(stored == crc32(buf.data(), buf.size() - sizeof(stored)),
             "checkpoint CRC mismatch (corrupt or torn write): " + path);

  Checkpoint out;
  if (in.pod<std::uint8_t>() != 0) out.meta = read_meta(in);
  const auto count = in.pod<std::uint64_t>();
  ST_REQUIRE(count <= kMaxRecords, "absurd record count in " + path);
  // A record takes at least 20 bytes (name length, rank, CRC), so the bytes
  // left bound the reservation however large the count field claims to be.
  out.records.reserve(std::min<std::uint64_t>(count, in.remaining() / 20));
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t begin = in.pos;
    out.records.push_back(read_record(in));
    const std::size_t end = in.pos;
    const auto record_crc = in.pod<std::uint32_t>();
    ST_REQUIRE(record_crc == crc32(buf.data() + begin, end - begin),
               "record CRC mismatch for '" + out.records.back().name +
                   "' in " + path);
  }
  ST_REQUIRE(in.remaining() == sizeof(std::uint32_t),
             "trailing garbage in checkpoint: " + path);
  return out;
}

std::vector<NamedTensor> load_checkpoint(const std::string& path) {
  return load_checkpoint_full(path).records;
}

}  // namespace spiketune
