// Tests for the Registry template behind the ordering-strategy,
// kernel-tier, placement-policy and optimizer registries: add() validation,
// lookup errors, registration order, and lookups racing an add().

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/registry.h"

namespace nocbt {
namespace {

class Plugin {
 public:
  virtual ~Plugin() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

class NamedPlugin final : public Plugin {
 public:
  explicit NamedPlugin(std::string name) : name_(std::move(name)) {}
  std::string_view name() const noexcept override { return name_; }

 private:
  std::string name_;
};

std::unique_ptr<NamedPlugin> plugin(std::string name) {
  return std::make_unique<NamedPlugin>(std::move(name));
}

TEST(Registry, RejectsNullEmptyAndDuplicateNames) {
  Registry<Plugin> registry("test plugin", plugin("alpha"));
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
  EXPECT_THROW(registry.add(plugin("")), std::invalid_argument);
  try {
    registry.add(plugin("alpha"));
    FAIL() << "expected a duplicate name to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'alpha'"), std::string::npos)
        << e.what();
  }
  // Built-ins pass through the same checks.
  EXPECT_THROW(Registry<Plugin>("test plugin", plugin("x"), plugin("x")),
               std::invalid_argument);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"alpha"});
}

TEST(Registry, UnknownNameErrorNamesKindAndListsEveryName) {
  Registry<Plugin> registry("test plugin", plugin("alpha"), plugin("beta"));
  registry.add(plugin("gamma"));
  EXPECT_EQ(registry.find("delta"), nullptr);
  try {
    (void)registry.get("delta");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* token :
         {"test plugin", "'delta'", "alpha", "beta", "gamma"})
      EXPECT_NE(what.find(token), std::string::npos)
          << "'" << what << "' does not mention " << token;
  }
}

TEST(Registry, KeepsRegistrationOrder) {
  Registry<Plugin> registry("test plugin", plugin("zeta"), plugin("alpha"));
  registry.add(plugin("mu"));
  const std::vector<std::string> expected = {"zeta", "alpha", "mu"};
  EXPECT_EQ(registry.names(), expected);
  const std::vector<const Plugin*> all = registry.all();
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->name(), expected[i]);
    EXPECT_EQ(registry.find(expected[i]), all[i]);
    EXPECT_EQ(&registry.get(expected[i]), all[i]);
  }
}

TEST(Registry, FindStaysCorrectWhileAnotherThreadAdds) {
  // Readers look entries up while a writer appends enough of them to
  // reallocate the entry list many times. Every lookup must return the
  // entry's one stable address, and an added entry, once visible, must be
  // complete.
  Registry<Plugin> registry("test plugin", plugin("alpha"), plugin("beta"));
  const Plugin* const alpha = registry.find("alpha");
  const Plugin* const beta = registry.find("beta");
  constexpr int kAdded = 400;
  constexpr int kLookups = 4000;
  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 3; ++t)
      threads.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kLookups; ++i) {
          if (registry.find("alpha") != alpha || &registry.get("beta") != beta)
            ++wrong;
          const std::string late_name = "added-" + std::to_string(i % kAdded);
          const Plugin* late = registry.find(late_name);
          if (late != nullptr && late->name() != late_name) ++wrong;
        }
      });
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kAdded; ++i)
        registry.add(plugin("added-" + std::to_string(i)));
    });
    go = true;
  }  // jthreads join here
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_EQ(registry.all().size(), 2u + kAdded);
  for (int i = 0; i < kAdded; ++i)
    EXPECT_NE(registry.find("added-" + std::to_string(i)), nullptr) << i;
}

}  // namespace
}  // namespace nocbt
