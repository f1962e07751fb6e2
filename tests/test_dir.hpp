#pragma once
// Per-test scratch directories under the gtest temp root.
//
// ctest runs every gtest case as its own process, side by side under -j, so
// a fixed leaf would let one case remove_all another's files. The leaf
// therefore carries the test name and the pid. Directories are removed when
// the process that made them exits normally; forked children never remove
// their parent's.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace turbosyn {

inline std::filesystem::path unique_test_dir(const std::string& prefix,
                                             const std::string& leaf) {
  struct Made {
    pid_t owner = ::getpid();
    std::vector<std::filesystem::path> dirs;
    ~Made() {
      if (::getpid() != owner) return;
      for (const std::filesystem::path& dir : dirs) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    }
  };
  static Made made;
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = test == nullptr ? "none" : test->name();
  for (char& ch : name) {
    if (ch == '/') ch = '_';  // parameterized names
  }
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    (prefix + leaf + "_" + name + "_" +
                                     std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  made.dirs.push_back(dir);
  return dir;
}

}  // namespace turbosyn
