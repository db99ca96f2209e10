//! Three-address instruction set.
//!
//! Memory is explicit: named variables live in local slots, and every
//! pointer-mediated access is a [`Inst::Load`]/[`Inst::Store`] on a
//! [`Place`] (base + projections), which is what gives the downstream alias
//! analysis its field sensitivity by byte offset (paper §7).

use crate::ids::LocalId;
use seal_kir::ast::{BinOp, UnOp};
use std::fmt;

/// A value operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read of a local slot.
    Local(LocalId),
    /// Read of a global scalar variable.
    Global(String),
    /// Integer constant.
    Const(i64),
    /// `NULL`.
    Null,
    /// String literal (address of static data).
    Str(String),
    /// Address of a named function (function-pointer value).
    FuncRef(String),
}

impl Operand {
    /// The local read by this operand, if any.
    pub fn as_local(&self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(*l),
            _ => None,
        }
    }

    /// True for constants that can never carry interaction data.
    pub fn is_const_like(&self) -> bool {
        matches!(self, Operand::Const(_) | Operand::Null | Operand::Str(_))
    }
}

/// Base of a memory place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlaceBase {
    /// A local slot (holding either a pointer or an aggregate value).
    Local(LocalId),
    /// A global variable.
    Global(String),
}

/// One step of a place projection chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Projection {
    /// Pointer indirection (`*p`).
    Deref,
    /// Field access with the struct tag, field name, and byte offset — the
    /// offset is the identity used for field-sensitive aliasing.
    Field {
        /// Struct tag the field belongs to.
        struct_name: String,
        /// Field name (kept for reporting).
        field: String,
        /// Byte offset from the base.
        offset: u64,
    },
    /// Array/pointer element access; the index operand is dynamic and
    /// `elem` is the element size in bytes (for concrete address
    /// computation; the static analyses are index-insensitive).
    Index {
        /// Element index operand.
        index: Operand,
        /// Element size in bytes.
        elem: u64,
    },
}

/// A memory location expression: base plus a projection chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Place {
    /// Starting point of the access path.
    pub base: PlaceBase,
    /// Projections applied left to right.
    pub projections: Vec<Projection>,
}

impl Place {
    /// A bare local place with no projections.
    pub fn local(l: LocalId) -> Self {
        Place {
            base: PlaceBase::Local(l),
            projections: vec![],
        }
    }

    /// A bare global place.
    pub fn global(name: impl Into<String>) -> Self {
        Place {
            base: PlaceBase::Global(name.into()),
            projections: vec![],
        }
    }

    /// True if the place involves pointer indirection.
    pub fn is_indirect(&self) -> bool {
        self.projections
            .iter()
            .any(|p| matches!(p, Projection::Deref | Projection::Index { .. }))
    }

    /// The field name of the last field projection, if any.
    pub fn last_field(&self) -> Option<(&str, &str)> {
        self.projections.iter().rev().find_map(|p| match p {
            Projection::Field {
                struct_name, field, ..
            } => Some((struct_name.as_str(), field.as_str())),
            _ => None,
        })
    }
}

/// Right-hand side of a scalar assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Plain copy.
    Use(Operand),
    /// Unary operation (`Deref`/`Addr` never appear here; they lower to
    /// `Load`/`AddrOf`).
    Unary(UnOp, Operand),
    /// Binary operation.
    Binary(BinOp, Operand, Operand),
}

impl Rvalue {
    /// Operands read by this rvalue.
    pub fn operands(&self) -> Vec<&Operand> {
        match self {
            Rvalue::Use(a) | Rvalue::Unary(_, a) => vec![a],
            Rvalue::Binary(_, a, b) => vec![a, b],
        }
    }
}

/// Callee of a call instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a named function or API.
    Direct(String),
    /// Indirect call through a function-pointer value. When the pointer was
    /// loaded from a struct field, `via_field` records `(struct, field)` —
    /// the interface identity used for type-based target resolution.
    Indirect {
        /// The function-pointer operand.
        ptr: Operand,
        /// Originating struct field, when known.
        via_field: Option<(String, String)>,
    },
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dest = rvalue` over scalars.
    Assign {
        /// Destination slot.
        dest: LocalId,
        /// Computed value.
        rv: Rvalue,
    },
    /// `dest = load place`.
    Load {
        /// Destination slot.
        dest: LocalId,
        /// Loaded location.
        place: Place,
    },
    /// `store place = value`.
    Store {
        /// Stored-to location.
        place: Place,
        /// Stored value.
        value: Operand,
    },
    /// `dest = &place`.
    AddrOf {
        /// Destination slot.
        dest: LocalId,
        /// Addressed location.
        place: Place,
    },
    /// Function call, direct or indirect.
    Call {
        /// Result slot (absent for void calls or discarded results).
        dest: Option<LocalId>,
        /// Call target.
        callee: Callee,
        /// Arguments in order.
        args: Vec<Operand>,
    },
}

impl Inst {
    /// The local defined by this instruction, if any.
    pub fn def(&self) -> Option<LocalId> {
        match self {
            Inst::Assign { dest, .. } | Inst::Load { dest, .. } | Inst::AddrOf { dest, .. } => {
                Some(*dest)
            }
            Inst::Call { dest, .. } => *dest,
            Inst::Store { .. } => None,
        }
    }

    /// Visits every operand read by this instruction, in order, including
    /// place base locals (reading through `p->f` reads `p`) and index
    /// operands. Allocates nothing.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Inst::Assign { rv, .. } => match rv {
                Rvalue::Use(a) | Rvalue::Unary(_, a) => f(a),
                Rvalue::Binary(_, a, b) => {
                    f(a);
                    f(b);
                }
            },
            // Reading memory reads the base (even a struct local's own
            // storage counts: its contents flow into the loaded value).
            Inst::Load { place, .. } => visit_place_operands(place, true, &mut f),
            Inst::Store { place, value } => {
                f(value);
                // A store reads the base only when it is a pointer being
                // followed; writing a local aggregate's field reads nothing.
                visit_place_operands(place, place.is_indirect(), &mut f);
            }
            Inst::AddrOf { place, .. } => visit_place_operands(place, place.is_indirect(), &mut f),
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect { ptr, .. } = callee {
                    f(ptr);
                }
                args.iter().for_each(f);
            }
        }
    }
}

fn visit_place_operands(place: &Place, base_is_read: bool, f: &mut impl FnMut(&Operand)) {
    if base_is_read {
        if let PlaceBase::Local(l) = &place.base {
            f(&Operand::Local(*l));
        }
    }
    for p in &place.projections {
        if let Projection::Index { index, .. } = p {
            f(index);
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(crate::ids::BlockId),
    /// Two-way branch on a scalar condition.
    Branch {
        /// Condition operand (non-zero means `then_bb`).
        cond: Operand,
        /// Taken when true.
        then_bb: crate::ids::BlockId,
        /// Taken when false.
        else_bb: crate::ids::BlockId,
    },
    /// Multi-way branch.
    Switch {
        /// Scrutinee.
        disc: Operand,
        /// `(label value, target)` pairs.
        cases: Vec<(i64, crate::ids::BlockId)>,
        /// Target when no label matches.
        default: crate::ids::BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
    /// Placeholder for blocks under construction; never in a finished body.
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<crate::ids::BlockId> {
        let mut v = Vec::new();
        self.for_each_successor(|b| v.push(b));
        v
    }

    /// Visits the successor blocks in [`Terminator::successors`] order
    /// (a `switch` lists its cases, then its default; a repeated target is
    /// visited once per edge). Allocates nothing.
    pub fn for_each_successor(&self, mut f: impl FnMut(crate::ids::BlockId)) {
        match self {
            Terminator::Goto(b) => f(*b),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Terminator::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    f(*b);
                }
                f(*default);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }

    /// Operand read by the terminator, if any.
    pub fn operand(&self) -> Option<&Operand> {
        match self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Switch { disc, .. } => Some(disc),
            Terminator::Return(v) => v.as_ref(),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Local(l) => write!(f, "{l}"),
            Operand::Global(g) => write!(f, "@{g}"),
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Null => write!(f, "null"),
            Operand::Str(s) => write!(f, "{s:?}"),
            Operand::FuncRef(n) => write!(f, "&{n}"),
        }
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            PlaceBase::Local(l) => write!(f, "{l}")?,
            PlaceBase::Global(g) => write!(f, "@{g}")?,
        }
        for p in &self.projections {
            match p {
                Projection::Deref => write!(f, ".*")?,
                Projection::Field { field, offset, .. } => write!(f, ".{field}@{offset}")?,
                Projection::Index { index, .. } => write!(f, "[{index}]")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Assign { dest, rv } => match rv {
                Rvalue::Use(a) => write!(f, "{dest} = {a}"),
                Rvalue::Unary(op, a) => write!(f, "{dest} = {op:?} {a}"),
                Rvalue::Binary(op, a, b) => write!(f, "{dest} = {a} {} {b}", op.as_str()),
            },
            Inst::Load { dest, place } => write!(f, "{dest} = load {place}"),
            Inst::Store { place, value } => write!(f, "store {place} = {value}"),
            Inst::AddrOf { dest, place } => write!(f, "{dest} = addr {place}"),
            Inst::Call { dest, callee, args } => {
                if let Some(d) = dest {
                    write!(f, "{d} = ")?;
                }
                match callee {
                    Callee::Direct(name) => write!(f, "call {name}(")?,
                    Callee::Indirect { ptr, via_field } => {
                        write!(f, "icall {ptr}")?;
                        if let Some((s, fl)) = via_field {
                            write!(f, "<{s}::{fl}>")?;
                        }
                        write!(f, "(")?;
                    }
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Goto(b) => write!(f, "goto {b}"),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "br {cond} ? {then_bb} : {else_bb}"),
            Terminator::Switch {
                disc,
                cases,
                default,
            } => {
                write!(f, "switch {disc} [")?;
                for (i, (v, b)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} -> {b}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Return(Some(v)) => write!(f, "ret {v}"),
            Terminator::Return(None) => write!(f, "ret"),
            Terminator::Unreachable => write!(f, "unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockId;

    fn use_count(i: &Inst) -> usize {
        let mut n = 0;
        i.for_each_use(|_| n += 1);
        n
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Assign {
            dest: LocalId(0),
            rv: Rvalue::Binary(BinOp::Add, Operand::Local(LocalId(1)), Operand::Const(2)),
        };
        assert_eq!(i.def(), Some(LocalId(0)));
        assert_eq!(use_count(&i), 2);

        let s = Inst::Store {
            place: Place {
                base: PlaceBase::Local(LocalId(3)),
                projections: vec![
                    Projection::Deref,
                    Projection::Index {
                        index: Operand::Local(LocalId(4)),
                        elem: 1,
                    },
                ],
            },
            value: Operand::Const(0),
        };
        assert_eq!(s.def(), None);
        // value + base pointer + index operand
        assert_eq!(use_count(&s), 3);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Switch {
            disc: Operand::Local(LocalId(0)),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn place_helpers() {
        let p = Place {
            base: PlaceBase::Local(LocalId(0)),
            projections: vec![
                Projection::Deref,
                Projection::Field {
                    struct_name: "riscmem".into(),
                    field: "cpu".into(),
                    offset: 0,
                },
            ],
        };
        assert!(p.is_indirect());
        assert_eq!(p.last_field(), Some(("riscmem", "cpu")));
        assert_eq!(p.to_string(), "%0.*.cpu@0");
        assert!(!Place::local(LocalId(1)).is_indirect());
    }

    #[test]
    fn display_call() {
        let c = Inst::Call {
            dest: Some(LocalId(5)),
            callee: Callee::Indirect {
                ptr: Operand::Local(LocalId(2)),
                via_field: Some(("vb2_ops".into(), "buf_prepare".into())),
            },
            args: vec![Operand::Local(LocalId(1))],
        };
        assert_eq!(c.to_string(), "%5 = icall %2<vb2_ops::buf_prepare>(%1)");
    }
}
