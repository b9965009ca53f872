#include "datalog/model.h"

#include <algorithm>
#include <cassert>

namespace multilog::datalog {

namespace {
const std::vector<Atom> kNoFacts;
}  // namespace

bool Model::Insert(const Atom& atom) {
  assert(atom.IsGround());
  Relation& rel = relations_[atom.PredicateId()];
  if (rel.slots.find(atom) != rel.slots.end()) return false;
  const uint32_t slot = static_cast<uint32_t>(rel.facts.size());
  rel.facts.push_back(atom);
  rel.slots.insert(slot);
  if (rel.index.size() < atom.arity()) rel.index.resize(atom.arity());
  for (size_t pos = 0; pos < atom.arity(); ++pos) {
    std::vector<uint32_t>& posting = rel.index[pos][atom.args()[pos]];
    rel.where.push_back(static_cast<uint32_t>(posting.size()));
    posting.push_back(slot);
  }
  ++size_;
  return true;
}

void Model::RemoveSlot(Relation* rel, uint32_t slot) {
  const size_t arity = rel->index.size();
  const Atom& doomed = rel->facts[slot];
  // Unlink `slot` from its posting lists: the list's last entry takes
  // its place, and that entry's back-pointer follows it.
  for (size_t pos = 0; pos < arity; ++pos) {
    auto list_it = rel->index[pos].find(doomed.args()[pos]);
    std::vector<uint32_t>& posting = list_it->second;
    const uint32_t offset = rel->where[slot * arity + pos];
    const uint32_t moved = posting.back();
    posting[offset] = moved;
    rel->where[moved * arity + pos] = offset;
    posting.pop_back();
    if (posting.empty()) rel->index[pos].erase(list_it);
  }
  // Fill the hole with the relation's last fact, repointing its posting
  // entries and its membership entry at the new slot (the entry is
  // re-keyed while `last` still names the fact, then re-hashed from it).
  const uint32_t last = static_cast<uint32_t>(rel->facts.size() - 1);
  if (slot != last) {
    SlotSet::node_type entry = rel->slots.extract(last);
    rel->facts[slot] = std::move(rel->facts[last]);
    const Atom& moved = rel->facts[slot];
    for (size_t pos = 0; pos < arity; ++pos) {
      const uint32_t offset = rel->where[last * arity + pos];
      rel->index[pos].find(moved.args()[pos])->second[offset] = slot;
      rel->where[slot * arity + pos] = offset;
    }
    entry.value() = slot;
    rel->slots.insert(std::move(entry));
  }
  rel->facts.pop_back();
  rel->where.resize(rel->where.size() - arity);
}

size_t Model::RemoveFacts(const std::vector<Atom>& atoms) {
  size_t removed = 0;
  for (const Atom& atom : atoms) {
    assert(atom.IsGround());
    auto rel_it = relations_.find(atom.PredicateId());
    if (rel_it == relations_.end()) continue;
    Relation& rel = rel_it->second;
    auto slot_it = rel.slots.find(atom);
    if (slot_it == rel.slots.end()) continue;
    const uint32_t slot = *slot_it;
    rel.slots.erase(slot_it);
    RemoveSlot(&rel, slot);
    if (rel.facts.empty()) relations_.erase(rel_it);
    ++removed;
    --size_;
  }
  return removed;
}

bool Model::Contains(const Atom& atom) const {
  auto it = relations_.find(atom.PredicateId());
  if (it == relations_.end()) return false;
  return it->second.slots.find(atom) != it->second.slots.end();
}

const std::vector<Atom>& Model::FactsFor(const PredicateId& id) const {
  auto it = relations_.find(id);
  if (it == relations_.end()) return kNoFacts;
  return it->second.facts;
}

FactSlice Model::FactsMatching(const PredicateId& id, size_t position,
                               const Term& value) const {
  auto it = relations_.find(id);
  if (it == relations_.end()) return FactSlice();
  const Relation& rel = it->second;
  if (position >= rel.index.size()) return FactSlice();
  auto val_it = rel.index[position].find(value);
  if (val_it == rel.index[position].end()) return FactSlice();
  return FactSlice(&rel.facts, &val_it->second);
}

std::vector<std::string> Model::Predicates() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [id, rel] : relations_) out.push_back(id.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::string Model::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(size_);
  for (const auto& [id, rel] : relations_) {
    for (const Atom& a : rel.facts) lines.push_back(a.ToString() + ".");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

bool Model::operator==(const Model& other) const {
  if (size_ != other.size_) return false;
  for (const auto& [id, rel] : relations_) {
    for (const Atom& a : rel.facts) {
      if (!other.Contains(a)) return false;
    }
  }
  return true;
}

}  // namespace multilog::datalog
