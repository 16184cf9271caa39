#include "shard/directory.h"

#include <algorithm>
#include <stdexcept>

namespace tordb::shard {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Directory Directory::hashed(int shards) {
  if (shards < 1) throw std::invalid_argument("shard count must be >= 1");
  Directory d;
  d.shards_ = shards;
  return d;
}

Directory Directory::ranged(std::vector<std::string> split_points) {
  if (!std::is_sorted(split_points.begin(), split_points.end())) {
    throw std::invalid_argument("range split points must be ascending");
  }
  Directory d;
  d.shards_ = static_cast<int>(split_points.size()) + 1;
  d.ranged_ = true;
  d.splits_ = std::move(split_points);
  d.owners_.resize(d.splits_.size() + 1);
  for (std::size_t i = 0; i < d.owners_.size(); ++i) d.owners_[i] = static_cast<int>(i);
  return d;
}

int Directory::shard_of(std::string_view key) const {
  if (ranged_) {
    // range i holds keys in [splits_[i-1], splits_[i]).
    const auto it = std::upper_bound(splits_.begin(), splits_.end(), key);
    return owners_[static_cast<std::size_t>(it - splits_.begin())];
  }
  return static_cast<int>(fnv1a(key) % static_cast<std::uint64_t>(shards_));
}

std::vector<int> Directory::shards_of(const db::Command& cmd) const {
  std::vector<int> out;
  for (const db::Op& op : cmd.ops) {
    const int s = shard_of(op.key);
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Directory::Slice> Directory::split(const db::Command& cmd) const {
  std::vector<Slice> out;
  for (const db::Op& op : cmd.ops) {
    const int s = shard_of(op.key);
    auto it = std::lower_bound(out.begin(), out.end(), s,
                               [](const Slice& slice, int shard) { return slice.shard < shard; });
    if (it == out.end() || it->shard != s) it = out.insert(it, Slice{s, {}});
    it->cmd.ops.push_back(op);
  }
  return out;
}

bool Directory::split_at(const std::string& key) {
  if (!ranged_ || key.empty()) return false;
  const auto it = std::lower_bound(splits_.begin(), splits_.end(), key);
  if (it != splits_.end() && *it == key) return false;  // already a bound
  const std::size_t range = static_cast<std::size_t>(it - splits_.begin());
  splits_.insert(it, key);
  owners_.insert(owners_.begin() + static_cast<std::ptrdiff_t>(range) + 1, owners_[range]);
  ++epoch_;
  return true;
}

bool Directory::merge_at(const std::string& key) {
  if (!ranged_) return false;
  const auto it = std::find(splits_.begin(), splits_.end(), key);
  if (it == splits_.end()) return false;
  const std::size_t left = static_cast<std::size_t>(it - splits_.begin());
  if (owners_[left] != owners_[left + 1]) return false;  // a merge never moves data
  splits_.erase(it);
  owners_.erase(owners_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
  ++epoch_;
  return true;
}

bool Directory::set_range_owner(const std::string& lo, const std::string& hi, int shard) {
  const int i = range_index(lo, hi);
  if (i < 0 || shard < 0 || shard >= shards_) return false;
  if (owners_[static_cast<std::size_t>(i)] == shard) return false;
  owners_[static_cast<std::size_t>(i)] = shard;
  ++epoch_;
  return true;
}

std::pair<std::string, std::string> Directory::range_bounds(int i) const {
  const std::size_t idx = static_cast<std::size_t>(i);
  std::string lo = idx == 0 ? "" : splits_[idx - 1];
  std::string hi = idx == splits_.size() ? "" : splits_[idx];
  return {std::move(lo), std::move(hi)};
}

int Directory::range_index(const std::string& lo, const std::string& hi) const {
  if (!ranged_) return -1;
  for (std::size_t i = 0; i <= splits_.size(); ++i) {
    if ((i == 0 ? lo.empty() : splits_[i - 1] == lo) &&
        (i == splits_.size() ? hi.empty() : splits_[i] == hi)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace tordb::shard
