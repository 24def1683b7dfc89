// Per-test scratch paths.
//
// gtest_discover_tests runs every test case as its own process, and
// `ctest -j` runs those processes side by side. A scratch path built from
// a fixed name under temp_directory_path() is therefore shared by every
// case (and every checkout) that uses it, and one case's cleanup deletes
// another's files. ScratchPath keys the path by the process id and the
// running test's full name; the process's scratch root is removed when
// the process exits.

#ifndef TGPP_TESTS_TEST_SCRATCH_H_
#define TGPP_TESTS_TEST_SCRATCH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace tgpp {

// <tmp>/tgpp_test.<pid>, removed with everything under it at exit.
class ScratchRoot {
 public:
  static const std::filesystem::path& Get() {
    static const ScratchRoot root;
    return root.path_;
  }

  ~ScratchRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

 private:
  ScratchRoot()
      : path_(std::filesystem::temp_directory_path() /
              ("tgpp_test." + std::to_string(::getpid()))) {}

  std::filesystem::path path_;
};

// <tmp>/tgpp_test.<pid>/<Suite.Test>/<name>, private to the running test
// case. The per-test directory exists on return; `name` itself (a file or
// a directory) is left for the caller to create.
inline std::string ScratchPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  const std::filesystem::path dir = ScratchRoot::Get() / test;
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

}  // namespace tgpp

#endif  // TGPP_TESTS_TEST_SCRATCH_H_
