#ifndef PCX_TESTS_SCRATCH_DIR_H_
#define PCX_TESTS_SCRATCH_DIR_H_

// Per-test scratch directories. `gtest_discover_tests` runs every TEST
// (and every parameter instance) as its own process, so under `ctest -j`
// two tests that write the same fixed name under testing::TempDir()
// clobber each other's files mid-read. TestScratchDir() instead returns
// a directory named from the running test's full name plus the pid —
// private to this process and this test — and removes it at exit.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace pcx {

/// Creates (once) and returns "<TempDir>/pcx_<Suite.Test>_<pid>". Call
/// from inside a test body; '/' in parameterized names becomes '_'.
inline std::string TestScratchDir() {
  /// Directories this process created, removed when it exits.
  struct Created {
    std::vector<std::filesystem::path> dirs;
    ~Created() {
      std::error_code ignored;
      for (const auto& dir : dirs) std::filesystem::remove_all(dir, ignored);
    }
  };
  static Created created;

  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("pcx_" + name + "_" + std::to_string(::getpid()));
  std::error_code error;
  if (std::filesystem::create_directories(dir, error)) {
    created.dirs.push_back(dir);
  }
  if (error) ADD_FAILURE() << "cannot create " << dir << ": " << error;
  return dir.string();
}

}  // namespace pcx

#endif  // PCX_TESTS_SCRATCH_DIR_H_
