//! Flow-insensitive, field-sensitive per-function points-to analysis.
//!
//! Computes, for every local slot, the set of abstract [`Cell`]s the slot's
//! value may point to, and provides [`PointsTo::cells_of_place`] to resolve
//! a [`Place`] to the memory cells it names. Roots follow the paper's
//! assumptions (§7): pointer parameters point to fresh unnamed objects,
//! call results to per-site objects, and globals to their own storage.

use crate::cell::{Cell, CellRoot, PathElem};
use seal_ir::body::FuncBody;
use seal_ir::ids::{InstLoc, LocalId};
use seal_ir::tac::{Inst, Operand, Place, PlaceBase, Projection, Rvalue};
use seal_kir::types::Type;
use std::collections::BTreeSet;

/// Points-to facts for one function.
#[derive(Debug, Default, Clone)]
pub struct PointsTo {
    /// Points-to set of each local, indexed by local id.
    pts: Vec<BTreeSet<Cell>>,
}

impl PointsTo {
    /// Runs the fixpoint for a function body.
    pub fn compute(body: &FuncBody) -> Self {
        let mut an = PointsTo {
            pts: vec![BTreeSet::new(); body.locals.len()],
        };
        // Seed pointer parameters.
        for (i, p) in body.params().enumerate() {
            if is_pointerish(&body.locals[p.index()].ty) {
                an.pts[p.index()].insert(Cell::root(CellRoot::ParamObj(body.id, i)));
            }
        }
        // Iterate to fixpoint.
        loop {
            let mut changed = false;
            for loc in body.inst_locs() {
                let inst = body.inst_at(loc).expect("inst_locs yields instructions");
                changed |= an.transfer(body, loc, inst);
            }
            if !changed {
                break;
            }
        }
        an
    }

    /// The points-to set of a local (empty for non-pointers).
    pub fn of(&self, l: LocalId) -> impl Iterator<Item = &Cell> {
        self.pts.get(l.index()).into_iter().flatten()
    }

    /// Cells named by a place (the memory locations a load/store touches).
    pub fn cells_of_place(&self, place: &Place) -> Vec<Cell> {
        let mut bases: Vec<Cell> = Vec::new();
        let mut projections = place.projections.as_slice();
        match &place.base {
            PlaceBase::Global(g) => bases.push(Cell::root(CellRoot::Global(g.clone()))),
            PlaceBase::Local(l) => {
                // A leading Deref/Index consumes the pointer value of the
                // local; otherwise the place names the local's own storage.
                match projections.first() {
                    Some(Projection::Deref) => {
                        bases.extend(self.of(*l).cloned());
                        projections = &projections[1..];
                    }
                    Some(Projection::Index { .. }) => {
                        // Pointer indexing `p[i]` both derefs and offsets.
                        for c in self.of(*l) {
                            bases.push(c.extend(PathElem::Index));
                        }
                        projections = &projections[1..];
                    }
                    _ => bases.push(Cell::root(CellRoot::Local(cell_func_of(place, l), *l))),
                }
            }
        }
        for proj in projections {
            let elem = match proj {
                Projection::Deref => PathElem::Deref,
                Projection::Field { offset, .. } => PathElem::Field(*offset),
                Projection::Index { .. } => PathElem::Index,
            };
            bases = bases.into_iter().map(|c| c.extend(elem)).collect();
        }
        bases.sort();
        bases.dedup();
        bases
    }

    /// Points-to set of an arbitrary operand.
    pub fn of_operand(&self, op: &Operand) -> Vec<Cell> {
        match op {
            Operand::Local(l) => self.of(*l).cloned().collect(),
            Operand::Global(g) => {
                vec![Cell::root(CellRoot::Global(g.clone())).extend(PathElem::Deref)]
            }
            Operand::Str(_) => vec![Cell::root(CellRoot::Str)],
            _ => vec![],
        }
    }

    fn transfer(&mut self, body: &FuncBody, loc: InstLoc, inst: &Inst) -> bool {
        let (dest, new_cells): (LocalId, Vec<Cell>) = match inst {
            Inst::Assign { dest, rv } => {
                if !is_pointerish(&body.locals[dest.index()].ty) {
                    return false;
                }
                let mut cells = Vec::new();
                match rv {
                    Rvalue::Use(op) => cells.extend(self.of_operand(op)),
                    // Pointer arithmetic keeps the base object.
                    Rvalue::Binary(_, a, b) => {
                        cells.extend(self.of_operand(a));
                        cells.extend(self.of_operand(b));
                    }
                    Rvalue::Unary(_, a) => cells.extend(self.of_operand(a)),
                }
                (*dest, cells)
            }
            Inst::Load { dest, place } => {
                if !is_pointerish(&body.locals[dest.index()].ty) {
                    return false;
                }
                // The loaded pointer points to the pointee of the cell.
                let cells = self
                    .cells_of_place(place)
                    .into_iter()
                    .map(|c| c.extend(PathElem::Deref))
                    .collect();
                (*dest, cells)
            }
            Inst::AddrOf { dest, place } => (*dest, self.cells_of_place(place)),
            Inst::Call { dest: Some(d), .. } => {
                if !is_pointerish(&body.locals[d.index()].ty) {
                    return false;
                }
                (*d, vec![Cell::root(CellRoot::RetObj(loc))])
            }
            _ => return false,
        };
        if dest.index() >= self.pts.len() {
            self.pts.resize_with(dest.index() + 1, BTreeSet::new);
        }
        let set = &mut self.pts[dest.index()];
        let before = set.len();
        set.extend(new_cells);
        set.len() != before
    }
}

/// Whether a type can hold a pointer value worth tracking.
fn is_pointerish(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Ptr(_) | Type::Array(..) | Type::Struct(_) | Type::Error
    )
}

/// The function owning a place's base local. Places only ever refer to
/// locals of the function being analyzed, so the func id comes from any
/// cell context; we thread it through the local's id (locals are
/// function-scoped, so pairing with the analyzed body's id is done by the
/// caller via `CellRoot::Local`). This helper exists to keep the intent
/// explicit.
fn cell_func_of(_place: &Place, _l: &LocalId) -> seal_ir::ids::FuncId {
    // Filled by compute() context: cells_of_place is only invoked through a
    // PointsTo computed for a single body, and Local roots are compared
    // within that body. Using FuncId(0) uniformly would conflate locals of
    // different functions when cells escape into inter-procedural maps, so
    // PointsTo is deliberately per-function and Local roots never escape:
    // see `graph.rs`, which keys memory facts per function.
    seal_ir::ids::FuncId(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::lower;
    use seal_kir::compile;

    fn analyze(src: &str, func: &str) -> (seal_ir::Module, PointsTo) {
        let m = lower(&compile(src, "t.c").unwrap());
        let pt = PointsTo::compute(m.function(func).unwrap());
        (m, pt)
    }

    #[test]
    fn param_points_to_param_obj() {
        let (m, pt) = analyze("void f(int *p) { *p = 1; }", "f");
        let f = m.function("f").unwrap();
        let p = f.local_by_name("p").unwrap();
        let cells: Vec<_> = pt.of(p).collect();
        assert_eq!(cells.len(), 1);
        assert!(matches!(cells[0].root, CellRoot::ParamObj(_, 0)));
    }

    #[test]
    fn store_through_field_names_offset_cell() {
        let (m, pt) = analyze(
            "struct risc { int pad; int *cpu; };\n\
             void f(struct risc *r, int *v) { r->cpu = v; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let store_place = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Store { place, .. } => Some(place.clone()),
                _ => None,
            })
            .unwrap();
        let cells = pt.cells_of_place(&store_place);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].path, vec![PathElem::Field(8)]);
    }

    #[test]
    fn copy_propagates_points_to() {
        let (m, pt) = analyze("void f(int *p) { int *q = p; *q = 1; }", "f");
        let f = m.function("f").unwrap();
        let q = f.local_by_name("q").unwrap();
        assert!(pt.of(q).any(|c| matches!(c.root, CellRoot::ParamObj(_, 0))));
    }

    #[test]
    fn call_result_gets_fresh_object() {
        let (m, pt) = analyze(
            "void *kmalloc(unsigned long n);\nvoid f(void) { void *p = kmalloc(8); if (p) {} }",
            "f",
        );
        let f = m.function("f").unwrap();
        let p = f.local_by_name("p").unwrap();
        assert!(pt.of(p).any(|c| matches!(c.root, CellRoot::RetObj(_))));
    }

    #[test]
    fn loaded_pointer_is_pointee_cell() {
        let (m, pt) = analyze(
            "struct risc { int *cpu; };\n\
             void f(struct risc *r) { int *x = r->cpu; *x = 0; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let x = f.local_by_name("x").unwrap();
        let cells: Vec<_> = pt.of(x).collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].path, vec![PathElem::Field(0), PathElem::Deref]);
    }

    #[test]
    fn distinct_fields_do_not_alias() {
        let (m, pt) = analyze(
            "struct s { int *a; int *b; };\n\
             void f(struct s *p, int *x, int *y) { p->a = x; p->b = y; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let places: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Store { place, .. } => Some(pt.cells_of_place(place)),
                _ => None,
            })
            .collect();
        assert_eq!(places.len(), 2);
        assert!(!places[0][0].may_alias(&places[1][0]));
    }

    #[test]
    fn pointer_indexing_adds_index_elem() {
        let (m, pt) = analyze("void f(char *buf, int i) { buf[i] = 0; }", "f");
        let f = m.function("f").unwrap();
        let place = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Store { place, .. } => Some(place.clone()),
                _ => None,
            })
            .unwrap();
        let cells = pt.cells_of_place(&place);
        assert_eq!(cells[0].path, vec![PathElem::Index]);
    }

    #[test]
    fn global_place_roots_at_global() {
        let (m, pt) = analyze(
            "struct ida { int x; };\nstruct ida telem_ida;\n\
             void f(void) { telem_ida.x = 1; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let place = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Store { place, .. } => Some(place.clone()),
                _ => None,
            })
            .unwrap();
        let cells = pt.cells_of_place(&place);
        assert!(matches!(cells[0].root, CellRoot::Global(ref g) if g == "telem_ida"));
        let _ = m;
    }

    #[test]
    fn address_of_local_struct() {
        let (m, pt) = analyze(
            "struct buf { int n; };\nint use_it(struct buf *b);\n\
             int f(void) { struct buf b; b.n = 3; return use_it(&b); }",
            "f",
        );
        let f = m.function("f").unwrap();
        // The AddrOf temp points at the local's storage.
        let addr_dest = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::AddrOf { dest, .. } => Some(*dest),
                _ => None,
            })
            .unwrap();
        assert!(pt
            .of(addr_dest)
            .any(|c| matches!(c.root, CellRoot::Local(..))));
    }
}
