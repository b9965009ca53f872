#include "common/symbol.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace multilog {

SymbolTable& SymbolTable::Global() {
  // Leaked singleton: symbol storage must outlive every static
  // destructor that might still resolve a Symbol.
  static SymbolTable* table = new SymbolTable();
  return *table;
}

SymbolTable::SymbolTable() {
  std::unique_lock lock(mu_);
  uint32_t id = Append("");
  (void)id;
  assert(id == 0);
}

uint32_t SymbolTable::Intern(std::string_view text) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(text);  // racing interner may have won
  if (it != ids_.end()) return it->second;
  return Append(text);
}

uint32_t SymbolTable::Append(std::string_view text) {
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const uint32_t block_index = id >> kBlockBits;
  if (block_index >= kMaxBlocks) {
    // Checked in every build: past the last block, the store below would
    // write beyond blocks_.
    std::fprintf(stderr, "multilog: symbol table full (%u symbols)\n", id);
    std::abort();
  }
  Block* block = blocks_[block_index].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new Block();
    blocks_[block_index].store(block, std::memory_order_release);
  }
  std::string& slot = block->strings[id & (kBlockSize - 1)];
  slot.assign(text.data(), text.size());
  ids_.emplace(std::string_view(slot), id);
  // Publish: a reader that acquires `size_ > id` sees the block
  // pointer and the constructed string.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

const std::string& SymbolTable::NameOf(uint32_t id) const {
  [[maybe_unused]] const uint32_t published =
      size_.load(std::memory_order_acquire);
  assert(id < published && "unresolvable symbol id");
  const Block* block =
      blocks_[id >> kBlockBits].load(std::memory_order_acquire);
  return block->strings[id & (kBlockSize - 1)];
}

}  // namespace multilog
