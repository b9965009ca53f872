#include "multilog/translate.h"

#include <algorithm>

#include "common/str_util.h"

namespace multilog::ml {

namespace {

Term ValueToTerm(const mls::Value& v) {
  if (v.is_null()) return NullTerm();
  if (v.is_int()) return Term::Int(v.int_value());
  return Term::Sym(ToLower(v.str()));
}

std::string TermToText(const Term& t) { return t.ToString(); }

/// Key term for a tuple: the value itself for single-attribute keys, a
/// compound `key(v1, ..., vk)` for composite keys (the F-logic-style
/// device the paper's Section 7 suggests).
Term KeyTerm(const mls::Relation& relation, const mls::Tuple& t) {
  const size_t key_arity = relation.scheme().key_arity();
  if (key_arity == 1) return ValueToTerm(t.key_cell().value);
  std::vector<Term> parts;
  parts.reserve(key_arity);
  for (size_t i = 0; i < key_arity; ++i) {
    parts.push_back(ValueToTerm(t.cells[i].value));
  }
  return Term::Fn("key", std::move(parts));
}

}  // namespace

Result<Database> EncodeRelation(const mls::Relation& relation,
                                const std::string& predicate) {
  Database db;

  // Lambda: the relation's lattice.
  for (const std::string& level : relation.lat().names()) {
    db.AddClause(MlClause{MlAtom(LAtom{Term::Sym(level)}), {}});
  }
  for (const auto& [low, high] : relation.lat().CoverEdges()) {
    db.AddClause(
        MlClause{MlAtom(HAtom{Term::Sym(low), Term::Sym(high)}), {}});
  }

  // Sigma: one molecular fact per tuple; the key attribute maps to the
  // key itself (the paper's AK convention).
  const mls::Scheme& scheme = relation.scheme();
  for (const mls::Tuple& t : relation.tuples()) {
    MAtom molecule{Term::Sym(t.tc), ToLower(predicate),
                   KeyTerm(relation, t), {}};
    for (size_t i = 0; i < t.cells.size(); ++i) {
      molecule.cells.push_back(
          MCell{ToLower(scheme.attributes()[i].name),
                Term::Sym(t.cells[i].classification),
                ValueToTerm(t.cells[i].value)});
    }
    db.AddClause(MlClause{MlAtom(std::move(molecule)), {}});
  }
  return db;
}

bool CellFact::operator<(const CellFact& other) const {
  if (key != other.key) return key < other.key;
  if (attribute != other.attribute) return attribute < other.attribute;
  if (value != other.value) return value < other.value;
  return classification < other.classification;
}

std::string CellFact::ToString() const {
  return key + "." + attribute + " = " + value + " / " + classification;
}

std::vector<CellFact> RelationCells(const mls::Relation& relation) {
  std::vector<CellFact> out;
  const mls::Scheme& scheme = relation.scheme();
  for (const mls::Tuple& t : relation.tuples()) {
    for (size_t i = 0; i < t.cells.size(); ++i) {
      out.push_back(CellFact{
          TermToText(KeyTerm(relation, t)),
          ToLower(scheme.attributes()[i].name),
          TermToText(ValueToTerm(t.cells[i].value)),
          t.cells[i].classification});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<CellFact>> BelievedCells(Engine* engine,
                                            const std::string& predicate,
                                            const std::string& level,
                                            const std::string& mode) {
  MULTILOG_ASSIGN_OR_RETURN(const datalog::Model* model,
                            engine->ReducedModel(level));
  const datalog::Model generic = DecodeModel(*model);
  std::vector<CellFact> out;
  for (const datalog::Atom& fact : generic.FactsFor("bel/7")) {
    const auto& a = fact.args();
    if (!a[0].IsSymbol() || a[0].name() != ToLower(predicate)) continue;
    if (!a[5].IsSymbol() || a[5].name() != level) continue;
    if (!a[6].IsSymbol() || a[6].name() != mode) continue;
    out.push_back(CellFact{a[1].ToString(), a[2].ToString(), a[3].ToString(),
                           a[4].ToString()});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

mls::Value TermToValue(const Term& t) {
  if (IsNullTerm(t)) return mls::Value::NullValue();
  if (t.IsInt()) return mls::Value::Int(t.int_value());
  return mls::Value::Str(t.symbol());  // no re-interning
}

}  // namespace

Result<mls::Relation> DecodeRelation(const CheckedDatabase& cdb,
                                     const std::string& predicate) {
  const std::string wanted = ToLower(predicate);

  // Collect the ground molecular facts of the predicate.
  std::vector<const MAtom*> molecules;
  for (const MlClause& clause : cdb.db.sigma) {
    if (!clause.IsFact()) continue;
    const auto* m = std::get_if<MAtom>(&clause.head);
    if (m == nullptr || m->predicate != wanted) continue;
    bool ground = m->level.IsSymbol() && m->key.IsGround();
    for (const MCell& c : m->cells) {
      ground = ground && c.classification.IsSymbol() && c.value.IsGround();
    }
    if (!ground) {
      return Status::InvalidProgram(
          "cannot decode non-ground m-fact " + m->ToString());
    }
    molecules.push_back(m);
  }
  if (molecules.empty()) {
    return Status::NotFound("no molecular facts for predicate '" +
                            predicate + "'");
  }

  // Infer the scheme from the first molecule: attribute order, and the
  // key attribute(s) - cells whose values match the key term.
  const MAtom& first = *molecules.front();
  const std::vector<std::string> minimal = cdb.lattice.MinimalElements();
  const std::vector<std::string> maximal = cdb.lattice.MaximalElements();
  if (minimal.empty()) {
    return Status::InvalidProgram("database declares no security levels");
  }

  std::vector<mls::AttributeDef> attributes;
  for (const MCell& c : first.cells) {
    attributes.push_back(
        mls::AttributeDef{c.attribute, minimal.front(), maximal.front()});
  }

  std::vector<std::string> key;
  if (first.key.IsCompound() && first.key.name() == "key") {
    for (const Term& part : first.key.args()) {
      for (const MCell& c : first.cells) {
        if (c.value == part) {
          key.push_back(c.attribute);
          break;
        }
      }
    }
    if (key.size() != first.key.args().size()) {
      return Status::InvalidProgram(
          "composite key components of " + first.ToString() +
          " do not all match cells");
    }
  } else {
    for (const MCell& c : first.cells) {
      if (c.value == first.key) {
        key.push_back(c.attribute);
        break;
      }
    }
    if (key.empty()) {
      return Status::InvalidProgram("no cell of " + first.ToString() +
                                    " carries the key value");
    }
  }

  MULTILOG_ASSIGN_OR_RETURN(
      mls::Scheme scheme,
      mls::Scheme::CreateComposite(predicate, attributes, key,
                                   cdb.lattice));
  mls::Relation relation(std::move(scheme), &cdb.lattice);

  // Load every molecule, reordering cells to the scheme's order.
  for (const MAtom* m : molecules) {
    mls::Tuple t;
    t.tc = m->level.name();
    for (const mls::AttributeDef& attr : relation.scheme().attributes()) {
      const MCell* cell = nullptr;
      for (const MCell& c : m->cells) {
        if (c.attribute == attr.name) {
          cell = &c;
          break;
        }
      }
      if (cell == nullptr) {
        return Status::InvalidProgram("m-fact " + m->ToString() +
                                      " is missing attribute '" + attr.name +
                                      "'");
      }
      t.cells.push_back(
          mls::Cell{TermToValue(cell->value), cell->classification.name()});
    }
    MULTILOG_RETURN_IF_ERROR(
        relation.InsertTuple(std::move(t))
            .WithContext("decoding " + m->ToString()));
  }
  return relation;
}

}  // namespace multilog::ml
