#ifndef MULTILOG_DATALOG_MODEL_H_
#define MULTILOG_DATALOG_MODEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/atom.h"

namespace multilog::datalog {

/// A non-owning view of the facts selected by one argument-index
/// posting list: resolves indices into the relation's fact vector on
/// the fly, so a join probe allocates nothing. Iterators yield
/// `const Atom&`. Invalidated by any mutation of the owning Model.
class FactSlice {
 public:
  FactSlice() = default;
  FactSlice(const std::vector<Atom>* facts, const std::vector<uint32_t>* ids)
      : facts_(facts), ids_(ids) {}

  size_t size() const { return ids_ == nullptr ? 0 : ids_->size(); }
  bool empty() const { return size() == 0; }
  const Atom& operator[](size_t i) const { return (*facts_)[(*ids_)[i]]; }

  class iterator {
   public:
    iterator(const FactSlice* slice, size_t i) : slice_(slice), i_(i) {}
    const Atom& operator*() const { return (*slice_)[i_]; }
    const Atom* operator->() const { return &(*slice_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const FactSlice* slice_;
    size_t i_;
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size()); }

 private:
  const std::vector<Atom>* facts_ = nullptr;
  const std::vector<uint32_t>* ids_ = nullptr;
};

/// A set of ground atoms (an Herbrand interpretation), indexed for the
/// access patterns of bottom-up evaluation:
///  - membership test (duplicate elimination),
///  - scan of one predicate's facts,
///  - scan of the facts matching a (predicate, argument position,
///    constant) selection - used to drive joins from bound arguments.
///
/// Relations are keyed by interned PredicateId and argument indexes by
/// (u32 position, Term) with integer hashing; no strings are touched
/// on the insert or probe paths.
class Model {
 public:
  Model() = default;

  /// Inserts a ground atom. Returns true if it was new. Precondition:
  /// atom.IsGround().
  bool Insert(const Atom& atom);

  /// Removes a batch of ground atoms, ignoring ones not present, and
  /// returns how many were actually removed. Each removal is a
  /// swap-remove: the relation's last fact moves into the freed slot,
  /// and per-slot back-pointers locate both facts' posting-list entries,
  /// which are swap-removed or rewritten in place. So k removals cost
  /// O(k * arity) hash probes whatever the relation's size. The price is
  /// fact order: a relation is no longer in insertion order once a fact
  /// has been removed from it (answers never depend on that order; see
  /// OrderedAnswers). Invalidates every FactSlice and FactsFor reference
  /// into the touched relations.
  size_t RemoveFacts(const std::vector<Atom>& atoms);

  bool Contains(const Atom& atom) const;

  /// All facts for p/n: in insertion order until the first removal from
  /// the relation, then in an order RemoveFacts leaves. Empty vector if
  /// none.
  /// (String call sites like FactsFor("edge/2") convert implicitly.)
  const std::vector<Atom>& FactsFor(const PredicateId& id) const;

  /// Facts for p/n whose argument at `position` equals `value` (a
  /// ground term), as a zero-allocation view over the posting list.
  /// Empty slice when the predicate or value is absent.
  FactSlice FactsMatching(const PredicateId& id, size_t position,
                          const Term& value) const;

  /// Total number of facts.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Predicate ids present, rendered "p/n", sorted.
  std::vector<std::string> Predicates() const;

  /// All facts of all predicates, sorted, one per line - used by tests
  /// to compare models structurally.
  std::string ToString() const;

  bool operator==(const Model& other) const;

 private:
  // The membership index holds slot numbers and hashes and compares
  // them by the facts they name, so it keeps no second copy of a fact;
  // an atom probes it directly (heterogeneous lookup).
  struct SlotHash {
    using is_transparent = void;
    const std::vector<Atom>* facts;
    size_t operator()(uint32_t slot) const { return (*facts)[slot].Hash(); }
    size_t operator()(const Atom& atom) const { return atom.Hash(); }
  };
  struct SlotEq {
    using is_transparent = void;
    const std::vector<Atom>* facts;
    bool operator()(uint32_t a, uint32_t b) const { return a == b; }
    bool operator()(const Atom& atom, uint32_t slot) const {
      return (*facts)[slot] == atom;
    }
    bool operator()(uint32_t slot, const Atom& atom) const {
      return (*facts)[slot] == atom;
    }
  };
  using SlotSet = std::unordered_set<uint32_t, SlotHash, SlotEq>;

  struct Relation {
    // `slots` points into `facts`, so a copy rebinds it to its own.
    Relation() : slots(0, SlotHash{&facts}, SlotEq{&facts}) {}
    Relation(const Relation& o)
        : facts(o.facts),
          slots(o.slots.begin(), o.slots.end(), o.slots.bucket_count(),
                SlotHash{&facts}, SlotEq{&facts}),
          index(o.index),
          where(o.where) {}
    Relation& operator=(const Relation&) = delete;

    std::vector<Atom> facts;
    // Every slot of `facts`.
    SlotSet slots;
    // One posting map per argument position: term -> slots in `facts`.
    // Sized to the relation's arity on first insert.
    std::vector<std::unordered_map<Term, std::vector<uint32_t>, TermHash>>
        index;
    // The back-pointers: where[slot * arity + pos] is the offset of
    // `slot` within its posting list at `pos`, so a removal edits that
    // list in O(1) instead of scanning it.
    std::vector<uint32_t> where;
  };

  /// Swap-removes the fact at `slot` from `rel` (see RemoveFacts).
  static void RemoveSlot(Relation* rel, uint32_t slot);

  std::unordered_map<PredicateId, Relation, PredicateIdHash> relations_;
  size_t size_ = 0;
};

}  // namespace multilog::datalog

#endif  // MULTILOG_DATALOG_MODEL_H_
