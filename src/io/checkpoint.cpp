#include "io/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define IGR_HAVE_FSYNC 1
#endif

#include <atomic>

#include "common/bfloat16.hpp"
#include "common/hash.hpp"
#include "common/telemetry.hpp"

namespace igr::io {

namespace {

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("checkpoint: " + what);
}

/// Storage tag written into CheckpointHeader::storage_bytes.  The low byte
/// is always the element size (so size math on old readers keeps working);
/// the high byte disambiguates 2-byte encodings — binary16 and bfloat16
/// files must never cross-load, their bit patterns mean different values.
template <class T>
constexpr std::uint32_t storage_code() {
  if constexpr (std::is_same_v<T, common::bfloat16>) return 0x0102u;
  return sizeof(T);
}

/// Name of a storage tag this build writes, or null for any other tag.
const char* precision_of(std::uint32_t tag) {
  switch (tag) {
    case 2: return "fp16";
    case 4: return "fp32";
    case 8: return "fp64";
    case 0x0102: return "bf16";
  }
  return nullptr;
}

/// Component count above which a header is treated as corrupt rather than a
/// format we merely don't know (kNumVars is 5; scalar fields use 1).
constexpr std::int32_t kMaxComponents = 16;

WriteFaultHook g_write_fault;

std::atomic<long> g_dir_fsyncs{0};

/// Persist the *rename* itself: fsync the directory holding `path`.  The
/// file's own fsync (before the rename) makes the bytes durable, but the
/// directory entry lives in the directory's data — without this a power cut
/// after commit() can resurface the old file, or none at all.
void fsync_parent_dir(const std::string& path) {
#ifdef IGR_HAVE_FSYNC
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  check(fd >= 0, "cannot open directory " + dir + " to fsync it: " +
                     std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  check(rc == 0, "fsync of directory " + dir + " failed: " +
                     std::strerror(errno));
  g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed);
#else
  (void)path;
#endif
}

/// Write-to-temp + fsync + atomic-rename.  A destructor without commit()
/// (error unwind / injected crash) closes the temp handle but deliberately
/// leaves the torn temp file on disk — exactly the debris a real mid-write
/// crash leaves — and never touches the final path.
class AtomicWriter {
 public:
  explicit AtomicWriter(std::string final_path)
      : final_(std::move(final_path)), tmp_(final_ + ".tmp") {
    f_ = std::fopen(tmp_.c_str(), "wb");
    check(f_ != nullptr, "cannot open " + tmp_ + " for writing");
  }

  AtomicWriter(const AtomicWriter&) = delete;
  AtomicWriter& operator=(const AtomicWriter&) = delete;

  ~AtomicWriter() {
    if (f_) std::fclose(f_);
  }

  void write(const void* p, std::size_t n) {
    check(std::fwrite(p, 1, n, f_) == n, "write failed for " + tmp_);
  }

  void seek(long offset) {
    check(std::fseek(f_, offset, SEEK_SET) == 0, "seek failed for " + tmp_);
  }

  /// Flush userspace and kernel buffers, close, then rename over the final
  /// path.  Only after this returns is the new checkpoint visible; any
  /// failure before the rename leaves the previous checkpoint intact.
  void commit() {
    check(std::fflush(f_) == 0, "flush failed for " + tmp_);
#ifdef IGR_HAVE_FSYNC
    check(::fsync(fileno(f_)) == 0, "fsync failed for " + tmp_);
#endif
    const int rc = std::fclose(f_);
    f_ = nullptr;
    check(rc == 0, "close failed for " + tmp_);
    check(std::rename(tmp_.c_str(), final_.c_str()) == 0,
          "atomic rename " + tmp_ + " -> " + final_ + " failed: " +
              std::strerror(errno));
    fsync_parent_dir(final_);
  }

 private:
  std::string final_;
  std::string tmp_;
  std::FILE* f_ = nullptr;
};

/// Header + per-component CRC table of a v2 file (v1: empty table).
struct HeaderInfo {
  CheckpointHeader h{};
  std::vector<std::uint32_t> crc;
  long payload_offset = 0;
};

std::uint32_t table_crc(const CheckpointHeader& h,
                        const std::uint32_t* crc, std::size_t n) {
  common::Crc32 c;
  c.update(&h, sizeof(h));
  c.update(crc, n * sizeof(std::uint32_t));
  return c.value();
}

HeaderInfo read_header_info(std::ifstream& in, const std::string& path) {
  HeaderInfo info;
  in.read(reinterpret_cast<char*>(&info.h), sizeof(info.h));
  check(static_cast<bool>(in), "truncated header in " + path);
  check(info.h.magic == CheckpointHeader{}.magic, "bad magic in " + path +
        " (not an IGR checkpoint)");
  check(info.h.version == 1 || info.h.version == 2,
        "unsupported version " + std::to_string(info.h.version) + " in " +
            path + " (this build reads v1 and v2)");
  check(info.h.num_vars >= 1 && info.h.num_vars <= kMaxComponents,
        "implausible component count " + std::to_string(info.h.num_vars) +
            " in " + path + " (corrupt header?)");
  check(info.h.nx > 0 && info.h.ny > 0 && info.h.nz > 0,
        "non-positive dims in " + path + " (corrupt header?)");
  if (!precision_of(info.h.storage_bytes)) {
    std::ostringstream os;
    os << "unknown storage tag 0x" << std::hex << info.h.storage_bytes
       << " in " << path << " (corrupt header?)";
    throw std::runtime_error("checkpoint: " + os.str());
  }
  info.payload_offset = static_cast<long>(sizeof(CheckpointHeader));
  if (info.h.version == 2) {
    info.crc.resize(static_cast<std::size_t>(info.h.num_vars));
    in.read(reinterpret_cast<char*>(info.crc.data()),
            static_cast<std::streamsize>(info.crc.size() *
                                         sizeof(std::uint32_t)));
    std::uint32_t stored_meta = 0;
    in.read(reinterpret_cast<char*>(&stored_meta), sizeof(stored_meta));
    check(static_cast<bool>(in), "truncated CRC table in " + path);
    const std::uint32_t meta =
        table_crc(info.h, info.crc.data(), info.crc.size());
    if (stored_meta != meta) {
      std::ostringstream os;
      os << "header CRC mismatch in " << path << ": stored " << std::hex
         << stored_meta << ", computed " << meta
         << " (torn or corrupt header)";
      throw std::runtime_error("checkpoint: " + os.str());
    }
    info.payload_offset +=
        static_cast<long>((info.crc.size() + 1) * sizeof(std::uint32_t));
  }

  // The declared sizes must add up to the file's own before any of them
  // sizes an allocation or a read loop (v1 headers carry no CRC, so this is
  // their only guard).  The low byte of the tag is the element size.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::string dims = std::to_string(info.h.nx) + "x" +
                           std::to_string(info.h.ny) + "x" +
                           std::to_string(info.h.nz);
  std::uint64_t payload = (info.h.storage_bytes & 0xffu) *
                          static_cast<std::uint64_t>(info.h.num_vars);
  for (const std::int32_t n : {info.h.nx, info.h.ny, info.h.nz}) {
    const auto un = static_cast<std::uint64_t>(n);
    check(payload <= kMax / un, "payload size of " + dims +
                                    " cells overflows in " + path +
                                    " (corrupt header?)");
    payload *= un;
  }
  const auto offset = static_cast<std::uint64_t>(info.payload_offset);
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(info.payload_offset);
  check(static_cast<bool>(in), "cannot measure the size of " + path);
  if (payload != file_bytes - offset) {
    throw std::runtime_error(
        std::string("checkpoint: ") +
        (payload > file_bytes - offset ? "truncated payload in "
                                       : "trailing bytes after payload in ") +
        path + ": header declares " + std::to_string(payload) + " bytes (" +
        dims + " cells), file holds " + std::to_string(file_bytes - offset));
  }
  return info;
}

/// Generic v2 writer: `fill_row(c, k, j, row)` supplies one interior x-row of
/// component `c`.  Single pass over the data; the CRC table slots are
/// back-patched before commit.
template <class T, class FillRow>
void write_impl(const std::string& path, int nx, int ny, int nz, int ng,
                int num_vars, double time, FillRow&& fill_row) {
  // The span closes on the error path too: the failed attempt is the
  // interesting one.
  common::telemetry::SpanScope span("checkpoint_write");
  AtomicWriter out(path);

  CheckpointHeader h;
  h.storage_bytes = storage_code<T>();
  h.nx = nx;
  h.ny = ny;
  h.nz = nz;
  h.ng = ng;
  h.num_vars = num_vars;
  h.time = time;
  out.write(&h, sizeof(h));

  std::vector<std::uint32_t> crcs(static_cast<std::size_t>(num_vars), 0);
  std::uint32_t meta = 0;
  out.write(crcs.data(), crcs.size() * sizeof(std::uint32_t));  // placeholder
  out.write(&meta, sizeof(meta));                               // placeholder

  std::vector<T> row(static_cast<std::size_t>(nx));
  const std::size_t row_bytes = row.size() * sizeof(T);
  std::size_t payload = 0;
  for (int c = 0; c < num_vars; ++c) {
    common::Crc32 crc;
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        fill_row(c, k, j, row.data());
        crc.update(row.data(), row_bytes);
        out.write(row.data(), row_bytes);
        payload += row_bytes;
        if (g_write_fault) g_write_fault(path, payload);
      }
    }
    crcs[static_cast<std::size_t>(c)] = crc.value();
  }

  out.seek(static_cast<long>(sizeof(CheckpointHeader)));
  meta = table_crc(h, crcs.data(), crcs.size());
  out.write(crcs.data(), crcs.size() * sizeof(std::uint32_t));
  out.write(&meta, sizeof(meta));
  out.commit();
}

/// Generic reader: structural checks with expected-vs-found errors, then the
/// payload streamed through `take_row(c, k, j, row)` with per-component CRC
/// verification on v2 files.
template <class T, class TakeRow>
double read_impl(const std::string& path, int nx, int ny, int nz,
                 int num_vars, TakeRow&& take_row) {
  common::telemetry::SpanScope span("checkpoint_read");
  std::ifstream in(path, std::ios::binary);
  check(static_cast<bool>(in), "cannot open " + path);
  const HeaderInfo info = read_header_info(in, path);
  const CheckpointHeader& h = info.h;

  if (h.storage_bytes != storage_code<T>()) {
    std::ostringstream os;
    os << "storage precision mismatch in " << path << ": file stores "
       << (h.storage_bytes & 0xffu) << "-byte values ("
       << precision_of(h.storage_bytes) << "), target expects " << sizeof(T)
       << "-byte (" << precision_of(storage_code<T>()) << ")";
    throw std::runtime_error("checkpoint: " + os.str());
  }
  if (h.nx != nx || h.ny != ny || h.nz != nz) {
    std::ostringstream os;
    os << "grid shape mismatch in " << path << ": file interior is " << h.nx
       << "x" << h.ny << "x" << h.nz << " (ghost depth " << h.ng
       << "), target expects " << nx << "x" << ny << "x" << nz;
    throw std::runtime_error("checkpoint: " + os.str());
  }
  if (h.num_vars != num_vars) {
    std::ostringstream os;
    os << "component count mismatch in " << path << ": file has "
       << h.num_vars << " component(s), target expects " << num_vars;
    throw std::runtime_error("checkpoint: " + os.str());
  }

  std::vector<T> row(static_cast<std::size_t>(nx));
  const std::size_t row_bytes = row.size() * sizeof(T);
  for (int c = 0; c < num_vars; ++c) {
    common::Crc32 crc;
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        in.read(reinterpret_cast<char*>(row.data()),
                static_cast<std::streamsize>(row_bytes));
        check(static_cast<bool>(in), "truncated data in " + path +
              " (component " + std::to_string(c) + ", plane " +
              std::to_string(k) + ")");
        crc.update(row.data(), row_bytes);
        take_row(c, k, j, row.data());
      }
    }
    if (h.version == 2 &&
        crc.value() != info.crc[static_cast<std::size_t>(c)]) {
      std::ostringstream os;
      os << "CRC mismatch in " << path << " component " << c << ": stored "
         << std::hex << info.crc[static_cast<std::size_t>(c)] << ", computed "
         << crc.value() << " — data is corrupt";
      throw std::runtime_error("checkpoint: " + os.str());
    }
  }
  return h.time;
}

}  // namespace

void set_checkpoint_write_fault(WriteFaultHook hook) {
  g_write_fault = std::move(hook);
}

long dir_fsyncs() { return g_dir_fsyncs.load(std::memory_order_relaxed); }

template <class T>
void write_checkpoint(const std::string& path,
                      const common::StateField3<T>& q, double time) {
  write_impl<T>(path, q.nx(), q.ny(), q.nz(), q.ng(), common::kNumVars, time,
                [&q](int c, int k, int j, T* row) {
                  for (int i = 0; i < q.nx(); ++i)
                    row[static_cast<std::size_t>(i)] = q[c](i, j, k);
                });
}

template <class T>
double read_checkpoint(const std::string& path, common::StateField3<T>& q) {
  return read_impl<T>(path, q.nx(), q.ny(), q.nz(), common::kNumVars,
                      [&q](int c, int k, int j, const T* row) {
                        for (int i = 0; i < q.nx(); ++i)
                          q[c](i, j, k) = row[static_cast<std::size_t>(i)];
                      });
}

template <class T>
void write_checkpoint_field(const std::string& path,
                            const common::Field3<T>& f, double time) {
  write_impl<T>(path, f.nx(), f.ny(), f.nz(), f.ng(), 1, time,
                [&f](int, int k, int j, T* row) {
                  for (int i = 0; i < f.nx(); ++i)
                    row[static_cast<std::size_t>(i)] = f(i, j, k);
                });
}

template <class T>
double read_checkpoint_field(const std::string& path, common::Field3<T>& f) {
  return read_impl<T>(path, f.nx(), f.ny(), f.nz(), 1,
                      [&f](int, int k, int j, const T* row) {
                        for (int i = 0; i < f.nx(); ++i)
                          f(i, j, k) = row[static_cast<std::size_t>(i)];
                      });
}

CheckpointHeader read_checkpoint_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(static_cast<bool>(in), "cannot open " + path);
  return read_header_info(in, path).h;
}

CheckpointValidation validate_checkpoint(const std::string& path) {
  CheckpointValidation v;
  try {
    std::ifstream in(path, std::ios::binary);
    check(static_cast<bool>(in), "cannot open " + path);
    const HeaderInfo info = read_header_info(in, path);
    v.header = info.h;

    // Low byte of the storage tag is the element size (high byte only
    // disambiguates same-size encodings, e.g. bf16 vs fp16).
    const std::size_t row_bytes =
        static_cast<std::size_t>(info.h.nx) * (info.h.storage_bytes & 0xffu);
    const std::size_t rows_per_comp =
        static_cast<std::size_t>(info.h.ny) *
        static_cast<std::size_t>(info.h.nz);
    std::vector<char> row(row_bytes);
    for (std::int32_t c = 0; c < info.h.num_vars; ++c) {
      common::Crc32 crc;
      for (std::size_t r = 0; r < rows_per_comp; ++r) {
        in.read(row.data(), static_cast<std::streamsize>(row_bytes));
        check(static_cast<bool>(in),
              "truncated payload in " + path + " (component " +
                  std::to_string(c) + ")");
        crc.update(row.data(), row_bytes);
      }
      if (info.h.version == 2 &&
          crc.value() != info.crc[static_cast<std::size_t>(c)]) {
        std::ostringstream os;
        os << "CRC mismatch in " << path << " component " << c << ": stored "
           << std::hex << info.crc[static_cast<std::size_t>(c)]
           << ", computed " << crc.value();
        throw std::runtime_error("checkpoint: " + os.str());
      }
    }
    v.ok = true;
  } catch (const std::exception& e) {
    v.ok = false;
    v.error = e.what();
  }
  return v;
}

void write_manifest(const std::string& path,
                    const std::vector<ManifestEntry>& entries) {
  std::ostringstream os;
  os << "igr-checkpoint-manifest v1\n";
  for (const auto& e : entries) {
    char tbuf[64];
    std::snprintf(tbuf, sizeof(tbuf), "%.17g", e.time);
    os << e.step << ' ' << tbuf << ' ' << e.path << '\n';
  }
  const std::string body = os.str();
  AtomicWriter out(path);
  out.write(body.data(), body.size());
  out.commit();
}

std::vector<ManifestEntry> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};  // nothing recorded yet: nothing to resume from
  // Lines are read into one fixed buffer and the entry count is capped, so
  // a corrupt or hostile manifest fails before it can allocate.
  std::vector<char> buf(static_cast<std::size_t>(kManifestLimit) + 1);
  const std::string limit = std::to_string(kManifestLimit);
  auto next_line = [&](std::string& line) {
    in.getline(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (in.fail() && !in.eof())
      check(false, "manifest line longer than " + limit + " bytes in " + path);
    if (in.gcount() == 0 && in.eof()) return false;
    line.assign(buf.data());
    return true;
  };
  std::string line;
  check(next_line(line) && line == "igr-checkpoint-manifest v1",
        "bad manifest header in " + path);
  std::vector<ManifestEntry> entries;
  while (next_line(line)) {
    if (line.empty()) continue;
    check(entries.size() < static_cast<std::size_t>(kManifestLimit),
          "manifest lists more than " + limit + " entries in " + path);
    std::istringstream ls(line);
    ManifestEntry e;
    check(static_cast<bool>(ls >> e.step >> e.time >> e.path),
          "malformed manifest line in " + path + ": '" + line + "'");
    entries.push_back(std::move(e));
  }
  return entries;
}

#define IGR_INSTANTIATE_CHECKPOINT(T)                                         \
  template void write_checkpoint<T>(const std::string&,                       \
                                    const common::StateField3<T>&, double);   \
  template double read_checkpoint<T>(const std::string&,                      \
                                     common::StateField3<T>&);                \
  template void write_checkpoint_field<T>(const std::string&,                 \
                                          const common::Field3<T>&, double);  \
  template double read_checkpoint_field<T>(const std::string&,               \
                                           common::Field3<T>&);

IGR_INSTANTIATE_CHECKPOINT(double)
IGR_INSTANTIATE_CHECKPOINT(float)
IGR_INSTANTIATE_CHECKPOINT(common::half)
IGR_INSTANTIATE_CHECKPOINT(common::bfloat16)
#undef IGR_INSTANTIATE_CHECKPOINT

}  // namespace igr::io
