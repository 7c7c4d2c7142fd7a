// A fixture for tests that drive subsystems without a Kernel.
#pragma once

#include <gtest/gtest.h>

#include "fault/kfail.hpp"

namespace usk::testutil {

/// Owns a fault injector and binds it to the test thread, so the fault
/// points a Kernel-less test hits check it: armed from USK_FAIL_SPEC like
/// every injector, fresh for every test. A thread the test spawns binds
/// it too (`fault::Kfail::Bind bind(&kf_);`).
class KfailTest : public ::testing::Test {
 protected:
  fault::Kfail kf_;
  fault::Kfail::Bind bind_{&kf_};
};

}  // namespace usk::testutil
