#pragma once
// Name-keyed registry behind every pluggable interface of the library:
// ordering strategies, BT kernel tiers, placement policies and optimizers.
//
// A Registry<T> owns its entries and never removes one, so the pointers
// and references find/get/all hand out stay valid for the process
// lifetime. Every member is thread-safe: campaign workers look entries up
// concurrently, and a caller may add() while they do.

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nocbt {

/// `T` exposes `std::string_view name() const`; names are unique.
template <typename T>
class Registry {
 public:
  /// `kind` names an entry in error messages ("placement policy"). The
  /// built-ins are added in argument order, which fixes enumeration order.
  template <typename... Builtins>
  explicit Registry(std::string kind, std::unique_ptr<Builtins>... builtins)
      : kind_(std::move(kind)) {
    (add(std::move(builtins)), ...);
  }

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Entry by name, or nullptr.
  [[nodiscard]] const T* find(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return find_locked(name);
  }

  /// Entry by name; throws std::invalid_argument naming the kind and
  /// listing every registered name when absent.
  [[nodiscard]] const T& get(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const T* entry = find_locked(name)) return *entry;
    std::string known;
    for (const auto& entry : entries_) {
      if (!known.empty()) known += ", ";
      known += entry->name();
    }
    throw std::invalid_argument("unknown " + kind_ + " '" + std::string(name) +
                                "' (registered: " + known + ")");
  }

  /// Every entry, registration order.
  [[nodiscard]] std::vector<const T*> all() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const T*> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry.get());
    return out;
  }

  /// Every entry's name, registration order (get accepts each).
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.emplace_back(entry->name());
    return out;
  }

  /// Append `entry`. Throws std::invalid_argument on a null entry or an
  /// empty or already registered name.
  void add(std::unique_ptr<T> entry) {
    if (!entry) throw std::invalid_argument("cannot register a null " + kind_);
    if (entry->name().empty())
      throw std::invalid_argument("cannot register a " + kind_ +
                                  " with an empty name");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (find_locked(entry->name()) != nullptr)
      throw std::invalid_argument("duplicate " + kind_ + " name '" +
                                  std::string(entry->name()) + "'");
    entries_.push_back(std::move(entry));
  }

 private:
  const T* find_locked(std::string_view name) const {
    for (const auto& entry : entries_)
      if (entry->name() == name) return entry.get();
    return nullptr;
  }

  const std::string kind_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> entries_;  // guarded by mutex_
};

}  // namespace nocbt
