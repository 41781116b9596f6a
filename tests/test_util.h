// Helpers shared by the test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

namespace chiron::testing_util {

/// TempDir()/chiron_<Suite>.<Test>_<pid>_<name>. ctest -j runs every test
/// in its own process, and two build trees may run their suites at once,
/// all under one TempDir(); a fixed file name would let those runs
/// overwrite each other's files, so every name carries the running
/// test's full name and the process id.
inline std::string temp_path(const std::string& name) {
  std::string tag = "chiron_";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    tag += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  tag += std::to_string(::getpid()) + "_" + name;
  // Parameterized tests put '/' in their names.
  std::replace(tag.begin(), tag.end(), '/', '_');
  return ::testing::TempDir() + tag;
}

/// FNV-1a over the little-endian bytes of 64-bit words: a known-answer
/// digest of a schedule, stable across platforms and releases.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    add(u);
  }
};

}  // namespace chiron::testing_util
