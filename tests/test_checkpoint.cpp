/// Tests for binary checkpoint/restart: bit-exact round trips at every
/// storage precision, header validation, and restart-equivalence of a
/// simulation (continue == straight-through run).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/igr_solver3d.hpp"
#include "io/checkpoint.hpp"

namespace {

namespace fs = std::filesystem;
using igr::common::kNumVars;
using igr::common::StateField3;

template <class T>
StateField3<T> make_state(int n) {
  StateField3<T> q(n, n, n, 3);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          q[c](i, j, k) = static_cast<T>(
              0.1 * c + std::sin(0.3 * i) * std::cos(0.2 * j) + 0.01 * k);
  return q;
}

template <class T>
class CheckpointRoundTrip : public ::testing::Test {};

using StorageTypes = ::testing::Types<double, float, igr::common::half>;
TYPED_TEST_SUITE(CheckpointRoundTrip, StorageTypes);

TYPED_TEST(CheckpointRoundTrip, BitExactAtEveryPrecision) {
  const auto path =
      fs::temp_directory_path() / ("igr_ckpt_" +
                                   std::to_string(sizeof(TypeParam)) + ".bin");
  const auto q = make_state<TypeParam>(6);
  igr::io::write_checkpoint(path.string(), q, 1.25);

  StateField3<TypeParam> r(6, 6, 6, 3);
  const double t = igr::io::read_checkpoint(path.string(), r);
  EXPECT_DOUBLE_EQ(t, 1.25);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 6; ++k)
      for (int j = 0; j < 6; ++j)
        for (int i = 0; i < 6; ++i)
          ASSERT_EQ(static_cast<double>(q[c](i, j, k)),
                    static_cast<double>(r[c](i, j, k)));
  fs::remove(path);
}

TEST(Checkpoint, HeaderRecordsMetadata) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_hdr.bin";
  const auto q = make_state<float>(5);
  igr::io::write_checkpoint(path.string(), q, 3.5);
  const auto h = igr::io::read_checkpoint_header(path.string());
  EXPECT_EQ(h.nx, 5);
  EXPECT_EQ(h.storage_bytes, 4u);
  EXPECT_EQ(h.num_vars, 5);
  EXPECT_DOUBLE_EQ(h.time, 3.5);
  fs::remove(path);
}

TEST(Checkpoint, RejectsShapeMismatch) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_shape.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  StateField3<double> wrong(8, 8, 8, 3);
  EXPECT_THROW(igr::io::read_checkpoint(path.string(), wrong),
               std::runtime_error);
  fs::remove(path);
}

TEST(Checkpoint, RejectsPrecisionMismatch) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_prec.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  StateField3<float> wrong(6, 6, 6, 3);
  EXPECT_THROW(igr::io::read_checkpoint(path.string(), wrong),
               std::runtime_error);
  fs::remove(path);
}

TEST(Checkpoint, RejectsGarbageFile) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_garbage.bin";
  {
    std::ofstream out(path);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(igr::io::read_checkpoint_header(path.string()),
               std::runtime_error);
  fs::remove(path);
}

TEST(Checkpoint, RestartedRunMatchesStraightThrough) {
  // 6 steps straight vs 3 steps + checkpoint + restart + 3 steps: the
  // restarted solver must match bitwise (fixed dt; Sigma is re-derived from
  // the state by the warm-started solve, which is part of the state's
  // definition only through the initial guess — use Jacobi + enough sweeps
  // to make the restart difference vanish below round-off).
  using igr::common::Fp64;
  using igr::core::IgrSolver3D;
  const auto g = igr::mesh::Grid::cube(10);
  igr::common::SolverConfig cfg;
  cfg.alpha_factor = 5.0;
  const auto bc = igr::fv::BcSpec::all_periodic();
  auto ic = [](double x, double y, double) {
    igr::common::Prim<double> w;
    w.rho = 1.0 + 0.2 * std::sin(2 * M_PI * x);
    w.u = 0.3 * std::cos(2 * M_PI * y);
    w.p = 1.0;
    return w;
  };

  IgrSolver3D<Fp64> full(g, cfg, bc);
  full.init(ic);
  for (int s = 0; s < 6; ++s) full.step_fixed(1e-3);

  IgrSolver3D<Fp64> first(g, cfg, bc);
  first.init(ic);
  for (int s = 0; s < 3; ++s) first.step_fixed(1e-3);
  const auto path = fs::temp_directory_path() / "igr_ckpt_restart.bin";
  igr::io::write_checkpoint(path.string(), first.state(), first.time());

  IgrSolver3D<Fp64> resumed(g, cfg, bc);
  const double t = igr::io::read_checkpoint(path.string(), resumed.state());
  EXPECT_NEAR(t, 3e-3, 1e-15);
  for (int s = 0; s < 3; ++s) resumed.step_fixed(1e-3);
  fs::remove(path);

  // Sigma's warm start differs across the restart (zero vs converged), so
  // the runs agree to the iteration error of the well-conditioned solve.
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 10; ++j)
      for (int i = 0; i < 10; ++i)
        ASSERT_NEAR(full.state()[0](i, j, k), resumed.state()[0](i, j, k),
                    1e-6);
}

// --- v2 format: compatibility, corruption detection, crash safety --------

/// Substring assertion on the error a callable throws.
template <class Fn>
void expect_throw_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected a throw mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

/// Hand-roll a v1 file (no CRC section) for the old-format compatibility
/// test: header with version = 1, then the raw row-major interior.
template <class T>
void write_v1_checkpoint(const std::string& path, const StateField3<T>& q,
                         double time) {
  igr::io::CheckpointHeader h;
  h.version = 1;
  h.storage_bytes = sizeof(T);
  h.nx = q.nx();
  h.ny = q.ny();
  h.nz = q.nz();
  h.ng = q.ng();
  h.num_vars = kNumVars;
  h.time = time;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < q.nz(); ++k)
      for (int j = 0; j < q.ny(); ++j)
        for (int i = 0; i < q.nx(); ++i) {
          const T v = q[c](i, j, k);
          out.write(reinterpret_cast<const char*>(&v), sizeof(T));
        }
}

TEST(CheckpointV2, V1FilesStillLoad) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_v1.bin";
  const auto q = make_state<double>(6);
  write_v1_checkpoint(path.string(), q, 2.5);
  EXPECT_EQ(igr::io::read_checkpoint_header(path.string()).version, 1u);

  StateField3<double> r(6, 6, 6, 3);
  EXPECT_DOUBLE_EQ(igr::io::read_checkpoint(path.string(), r), 2.5);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 6; ++k)
      for (int j = 0; j < 6; ++j)
        for (int i = 0; i < 6; ++i)
          ASSERT_EQ(q[c](i, j, k), r[c](i, j, k));

  // v1 carries no checksums: validation is structural only, and passes.
  EXPECT_TRUE(igr::io::validate_checkpoint(path.string()).ok);
  fs::remove(path);
}

TEST(CheckpointV2, CrcCatchesSingleFlippedPayloadByte) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_flip.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);

  // Flip one byte deep in the payload (well past header + CRC table).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x10);
    f.write(&b, 1);
  }

  StateField3<double> r(6, 6, 6, 3);
  expect_throw_containing(
      [&] { igr::io::read_checkpoint(path.string(), r); }, "CRC mismatch");
  const auto v = igr::io::validate_checkpoint(path.string());
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("CRC mismatch"), std::string::npos) << v.error;
  fs::remove(path);
}

TEST(CheckpointV2, CrcCatchesCorruptHeader) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_hdrflip.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  {
    // Corrupt the stored time (bytes 40..47 of the header): dims stay
    // plausible, so only the header CRC can catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    const char junk = 0x5A;
    f.write(&junk, 1);
  }
  expect_throw_containing(
      [&] { igr::io::read_checkpoint_header(path.string()); },
      "header CRC mismatch");
  EXPECT_FALSE(igr::io::validate_checkpoint(path.string()).ok);
  fs::remove(path);
}

TEST(CheckpointV2, TruncatedFileRejectedWithLocation) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_trunc.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  fs::resize_file(path, fs::file_size(path) * 2 / 3);

  StateField3<double> r(6, 6, 6, 3);
  expect_throw_containing(
      [&] { igr::io::read_checkpoint(path.string(), r); }, "truncated");
  const auto v = igr::io::validate_checkpoint(path.string());
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("truncated"), std::string::npos) << v.error;
  fs::remove(path);
}

TEST(CheckpointV2, MismatchErrorsReportExpectedVsFound) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_msgs.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);

  StateField3<double> wrong_shape(8, 8, 8, 3);
  expect_throw_containing(
      [&] { igr::io::read_checkpoint(path.string(), wrong_shape); },
      "file interior is 6x6x6 (ghost depth 3), target expects 8x8x8");

  StateField3<float> wrong_prec(6, 6, 6, 3);
  expect_throw_containing(
      [&] { igr::io::read_checkpoint(path.string(), wrong_prec); },
      "file stores 8-byte values (fp64), target expects 4-byte (fp32)");

  // A 1-component field target against the 5-component state file.
  igr::common::Field3<double> scalar(6, 6, 6, 3);
  expect_throw_containing(
      [&] { igr::io::read_checkpoint_field(path.string(), scalar); },
      "file has 5 component(s), target expects 1");
  fs::remove(path);
}

TEST(CheckpointV2, UnsupportedVersionRejected) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_badver.bin";
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // version field follows the 8-byte magic
    const std::uint32_t v = 99;
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  expect_throw_containing(
      [&] { igr::io::read_checkpoint_header(path.string()); },
      "unsupported version 99");
  fs::remove(path);
}

/// A 112-byte v1 file (no CRC section): `h` followed by zero bytes — the
/// shape of a crafted or bit-rotted header a resume scan may meet.
void write_crafted_v1(const std::string& path,
                      const igr::io::CheckpointHeader& h) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  const std::string pad(112 - sizeof(h), '\0');
  out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
}

igr::io::CheckpointHeader crafted_header(std::uint32_t storage, int nx,
                                         int ny, int nz) {
  igr::io::CheckpointHeader h;
  h.version = 1;
  h.storage_bytes = storage;
  h.nx = nx;
  h.ny = ny;
  h.nz = nz;
  h.ng = 3;
  h.num_vars = kNumVars;
  return h;
}

TEST(CheckpointV2, UnknownStorageTagRejectedBeforeReading) {
  // Low byte 0 made every row zero bytes long: validation then spun
  // through 2^60 zero-byte reads instead of failing.
  const auto path = fs::temp_directory_path() / "igr_ckpt_badtag.bin";
  write_crafted_v1(path.string(),
                   crafted_header(0x0100u, 1, 1 << 30, 1 << 30));
  const auto v = igr::io::validate_checkpoint(path.string());
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unknown storage tag 0x100"), std::string::npos)
      << v.error;
  expect_throw_containing(
      [&] { igr::io::read_checkpoint_header(path.string()); },
      "unknown storage tag 0x100");
  fs::remove(path);
}

TEST(CheckpointV2, DeclaredSizeCheckedAgainstFileBeforeAllocating) {
  // nx = 2^31-1 at fp64 asked for a 16 GiB row before reading one payload
  // byte; the header's sizes must instead be checked against the file.
  const auto path = fs::temp_directory_path() / "igr_ckpt_hugerow.bin";
  write_crafted_v1(path.string(), crafted_header(8, 2147483647, 1, 1));
  const auto v = igr::io::validate_checkpoint(path.string());
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("truncated payload in " + path.string() +
                         ": header declares 85899345880 bytes "
                         "(2147483647x1x1 cells), file holds 64"),
            std::string::npos)
      << v.error;

  // Dims whose byte count does not fit in 64 bits.
  write_crafted_v1(path.string(),
                   crafted_header(8, 2147483647, 2147483647, 2147483647));
  expect_throw_containing(
      [&] { igr::io::read_checkpoint_header(path.string()); },
      "payload size of 2147483647x2147483647x2147483647 cells overflows");

  // A valid file with bytes appended is rejected up front, too.
  igr::io::write_checkpoint(path.string(), make_state<double>(6), 0.0);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('x');
  }
  const auto t = igr::io::validate_checkpoint(path.string());
  EXPECT_FALSE(t.ok);
  EXPECT_NE(t.error.find("trailing bytes after payload"), std::string::npos)
      << t.error;
  fs::remove(path);
}

TEST(CheckpointV2, TornWriteNeverTouchesTheFinalPath) {
  const auto path = fs::temp_directory_path() / "igr_ckpt_torn.bin";
  const auto q = make_state<double>(6);
  igr::io::write_checkpoint(path.string(), q, 1.0);  // the "previous" save

  // Kill the writer partway through the payload of the next save.
  igr::io::set_checkpoint_write_fault(
      [](const std::string&, std::size_t bytes) {
        if (bytes > 500) throw std::runtime_error("simulated writer death");
      });
  EXPECT_THROW(igr::io::write_checkpoint(path.string(), q, 2.0),
               std::runtime_error);
  igr::io::set_checkpoint_write_fault({});

  // The final path still holds the previous, fully valid save; the debris
  // is confined to the temp file.
  const auto v = igr::io::validate_checkpoint(path.string());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_DOUBLE_EQ(v.header.time, 1.0);
  EXPECT_TRUE(fs::exists(path.string() + ".tmp"));
  fs::remove(path);
  fs::remove(path.string() + ".tmp");
}

TEST(CheckpointV2, CommittedWritesFsyncTheParentDirectory) {
  // fsync of the checkpoint file alone does not persist the *rename*: after
  // a power cut the directory entry may still point at the old file.  Every
  // committed atomic write must therefore also fsync the parent directory —
  // asserted via the process-wide counter, one bump per commit.
  const auto path = fs::temp_directory_path() / "igr_ckpt_dirsync.bin";
  const auto q = make_state<double>(6);

  const long before = igr::io::dir_fsyncs();
  igr::io::write_checkpoint(path.string(), q, 1.0);
  EXPECT_EQ(igr::io::dir_fsyncs(), before + 1);

  // Manifests commit through the same atomic-write path.
  igr::io::write_manifest(path.string() + ".manifest",
                          {{5, 0.5, path.string()}});
  EXPECT_EQ(igr::io::dir_fsyncs(), before + 2);

  // A torn write never reaches the rename, so the directory is untouched
  // and the counter must not move.
  igr::io::set_checkpoint_write_fault(
      [](const std::string&, std::size_t bytes) {
        if (bytes > 500) throw std::runtime_error("simulated writer death");
      });
  EXPECT_THROW(igr::io::write_checkpoint(path.string(), q, 2.0),
               std::runtime_error);
  igr::io::set_checkpoint_write_fault({});
  EXPECT_EQ(igr::io::dir_fsyncs(), before + 2);

  fs::remove(path);
  fs::remove(path.string() + ".manifest");
  fs::remove(path.string() + ".tmp");
}

TEST(CheckpointV2, ManifestRoundTripAndMissingFile) {
  const auto path = fs::temp_directory_path() / "igr_ckpt.manifest";
  EXPECT_TRUE(igr::io::read_manifest(path.string()).empty());

  std::vector<igr::io::ManifestEntry> entries{
      {5, 0.1234567890123456789, "/tmp/a.ckpt5"},
      {10, 0.25, "/tmp/a.ckpt10"},
  };
  igr::io::write_manifest(path.string(), entries);
  const auto back = igr::io::read_manifest(path.string());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].step, 5);
  EXPECT_DOUBLE_EQ(back[0].time, entries[0].time);  // %.17g round-trips
  EXPECT_EQ(back[1].path, "/tmp/a.ckpt10");
  fs::remove(path);
}

TEST(CheckpointV2, ManifestOverItsLimitIsRejected) {
  // kManifestLimit bounds both the entry count and the line length; either
  // excess fails with the limit in the message, before the reader grows a
  // line or the entry list past it.
  const auto path = fs::temp_directory_path() / "igr_big.manifest";
  const int limit = igr::io::kManifestLimit;
  auto expect_rejected = [&](const std::string& body, const char* why) {
    {
      std::ofstream f(path, std::ios::binary);
      f << "igr-checkpoint-manifest v1\n" << body;
    }
    try {
      (void)igr::io::read_manifest(path.string());
      ADD_FAILURE() << "accepted a manifest with " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(std::to_string(limit)),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected("1 0.5 " + std::string(static_cast<std::size_t>(limit), 'p') +
                      "\n",
                  "manifest line longer than");
  std::string many;
  for (int i = 0; i <= limit; ++i)
    many += std::to_string(i) + " 0.5 /tmp/a.ckpt" + std::to_string(i) + "\n";
  expect_rejected(many, "manifest lists more than");

  // Exactly at the bounds still reads back: `limit` entries, the last one
  // a line of exactly `limit` bytes (without a trailing newline).
  const std::string last =
      "7 0.5 " + std::string(static_cast<std::size_t>(limit) - 6, 'p');
  {
    std::ofstream f(path, std::ios::binary);
    f << "igr-checkpoint-manifest v1\n";
    for (int i = 0; i + 1 < limit; ++i)
      f << i << " 0.5 /tmp/a.ckpt" << i << "\n";
    f << last;
  }
  const auto back = igr::io::read_manifest(path.string());
  ASSERT_EQ(back.size(), static_cast<std::size_t>(limit));
  EXPECT_EQ(back.back().path, last.substr(6));
  fs::remove(path);
}

}  // namespace
