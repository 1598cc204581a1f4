#include "objstore/object_store.h"

#include <cassert>

namespace hepvine::objstore {

void ObjectStore::reset(std::size_t nodes, std::uint64_t capacity_bytes) {
  objects_.assign(nodes, {});
  used_.assign(nodes, 0);
  holder_.clear();
  capacity_ = capacity_bytes;
}

void ObjectStore::put(NodeId n, FileId file, std::uint64_t bytes, Tick now) {
  assert(holder_of(file) == kNoHolder);
  auto& node = objects_[static_cast<std::size_t>(n)];
  StoreEntry entry;
  entry.bytes = bytes;
  entry.put_at = now;
  node.emplace(file, entry);
  holder_[file] = n;
  used_[static_cast<std::size_t>(n)] += bytes;
}

bool ObjectStore::holds(NodeId n, FileId file) const {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return false;
  return objects_[static_cast<std::size_t>(n)].contains(file);
}

NodeId ObjectStore::holder_of(FileId file) const {
  auto it = holder_.find(file);
  return it == holder_.end() ? kNoHolder : it->second;
}

std::uint64_t ObjectStore::object_bytes(NodeId n, FileId file) const {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return 0;
  const auto& node = objects_[static_cast<std::size_t>(n)];
  auto it = node.find(file);
  return it == node.end() ? 0 : it->second.bytes;
}

std::uint32_t ObjectStore::refs(NodeId n, FileId file) const {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return 0;
  const auto& node = objects_[static_cast<std::size_t>(n)];
  auto it = node.find(file);
  return it == node.end() ? 0 : it->second.refs;
}

void ObjectStore::add_ref(NodeId n, FileId file) {
  auto& node = objects_[static_cast<std::size_t>(n)];
  auto it = node.find(file);
  assert(it != node.end());
  it->second.refs += 1;
}

void ObjectStore::release_ref(NodeId n, FileId file) {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return;
  auto& node = objects_[static_cast<std::size_t>(n)];
  auto it = node.find(file);
  if (it == node.end() || it->second.refs == 0) return;
  it->second.refs -= 1;
}

bool ObjectStore::erase(NodeId n, FileId file) {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return false;
  auto& node = objects_[static_cast<std::size_t>(n)];
  auto it = node.find(file);
  if (it == node.end()) return false;
  used_[static_cast<std::size_t>(n)] -= it->second.bytes;
  node.erase(it);
  holder_.erase(file);
  return true;
}

void ObjectStore::drop_node(NodeId n) {
  if (n < 0 || static_cast<std::size_t>(n) >= objects_.size()) return;
  auto& node = objects_[static_cast<std::size_t>(n)];
  for (const auto& [file, entry] : node) holder_.erase(file);
  node.clear();
  used_[static_cast<std::size_t>(n)] = 0;
}

FileId ObjectStore::spill_victim(NodeId n) const {
  const auto& node = objects_[static_cast<std::size_t>(n)];
  FileId victim = data::kInvalidFile;
  Tick oldest = 0;
  for (const auto& [file, entry] : node) {
    if (entry.refs > 0) continue;
    if (victim == data::kInvalidFile || entry.put_at < oldest) {
      victim = file;
      oldest = entry.put_at;
    }
  }
  return victim;
}

std::uint64_t ObjectStore::used(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= used_.size()) return 0;
  return used_[static_cast<std::size_t>(n)];
}

std::size_t ObjectStore::total_objects() const { return holder_.size(); }

std::vector<StoreItem> ObjectStore::objects() const {
  std::vector<StoreItem> out;
  out.reserve(holder_.size());
  for (const auto& [file, node] : holder_) {
    StoreItem item;
    item.holder = node;
    item.file = file;
    const auto& entries = objects_[static_cast<std::size_t>(node)];
    auto it = entries.find(file);
    if (it != entries.end()) item.entry = it->second;
    out.push_back(item);
  }
  return out;
}

}  // namespace hepvine::objstore
