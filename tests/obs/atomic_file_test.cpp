#include "obs/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace xentry::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicFileTest, WriteFileAtomicPublishesAndOverwrites) {
  const std::string dir = ::testing::TempDir() + "atomic_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string p = dir + "/status.json";
  ASSERT_TRUE(write_file_atomic(p, "first\n"));
  EXPECT_EQ(slurp(p), "first\n");
  ASSERT_TRUE(write_file_atomic(p, "second\n"));
  EXPECT_EQ(slurp(p), "second\n");
  // The temp file never survives a successful publication.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  // Unwritable destination: failure is reported, nothing is left behind.
  EXPECT_FALSE(write_file_atomic(dir + "/missing/status.json", "x"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xentry::obs
