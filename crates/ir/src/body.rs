//! Function bodies: locals, basic blocks, and iteration helpers.

use crate::ids::{BlockId, FuncId, InstLoc, LocalId};
use crate::tac::{Inst, Terminator};
use seal_kir::span::Span;
use seal_kir::types::Type;

/// One local slot: a named source variable or a compiler temporary.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Source name; temporaries get `$tN`.
    pub name: String,
    /// Declared or inferred type.
    pub ty: Type,
    /// True for compiler-introduced temporaries.
    pub is_temp: bool,
    /// True for function parameters.
    pub is_param: bool,
    /// Declaration site.
    pub span: Span,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// Source span of each instruction (parallel to `insts`).
    pub spans: Vec<Span>,
    /// Block terminator.
    pub terminator: Terminator,
    /// Span of the terminator's source construct.
    pub term_span: Span,
}

impl BasicBlock {
    /// An empty block ending in `Unreachable` (used during construction).
    pub fn new() -> Self {
        BasicBlock {
            insts: vec![],
            spans: vec![],
            terminator: Terminator::Unreachable,
            term_span: Span::DUMMY,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Every block's predecessors in one flat table: `of(b)` lists the blocks
/// that jump to `b`, ascending, once per edge. [`Predecessors::fill`]
/// reuses the table's buffers, so a caller walking many bodies allocates
/// only while the largest body grows them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Predecessors {
    /// `offsets[b]..offsets[b + 1]` is block `b`'s slice of `flat`.
    offsets: Vec<u32>,
    flat: Vec<BlockId>,
}

impl Predecessors {
    /// Recomputes the table for `body`.
    pub fn fill(&mut self, body: &FuncBody) {
        let n = body.blocks.len();
        self.offsets.clear();
        self.offsets.resize(n + 2, 0);
        // Count into `offsets[s + 2]`, prefix-sum into `offsets[s + 1]`,
        // then place with `offsets[s + 1]` as the cursor, which leaves it
        // at the end of row `s`: a stable counting sort with no second
        // buffer.
        for b in &body.blocks {
            b.terminator
                .for_each_successor(|s| self.offsets[s.index() + 2] += 1);
        }
        for i in 2..n + 2 {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.flat.clear();
        self.flat.resize(self.offsets[n + 1] as usize, BlockId(0));
        for (bi, b) in body.blocks.iter().enumerate() {
            b.terminator.for_each_successor(|s| {
                let at = &mut self.offsets[s.index() + 1];
                self.flat[*at as usize] = BlockId(bi as u32);
                *at += 1;
            });
        }
        self.offsets.pop();
    }

    /// The predecessors of block `b`.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.flat[self.offsets[b.index()] as usize..self.offsets[b.index() + 1] as usize]
    }
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    /// Function name.
    pub name: String,
    /// Id within the owning module.
    pub id: FuncId,
    /// Return type.
    pub ret_ty: Type,
    /// Locals; the first `param_count` entries are the parameters in order.
    pub locals: Vec<LocalDecl>,
    /// Number of parameters.
    pub param_count: usize,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<BasicBlock>,
    /// Span of the definition.
    pub span: Span,
}

impl FuncBody {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Parameter local ids in order.
    pub fn params(&self) -> impl Iterator<Item = LocalId> + '_ {
        (0..self.param_count as u32).map(LocalId)
    }

    /// Looks up a local by source name (parameters included).
    pub fn local_by_name(&self, name: &str) -> Option<LocalId> {
        self.locals
            .iter()
            .position(|l| l.name == name)
            .map(|i| LocalId(i as u32))
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The instruction at a location, or `None` for terminators.
    pub fn inst_at(&self, loc: InstLoc) -> Option<&Inst> {
        if loc.is_terminator() {
            None
        } else {
            self.blocks.get(loc.block.index())?.insts.get(loc.idx)
        }
    }

    /// Source span of a location (instruction or terminator).
    pub fn span_at(&self, loc: InstLoc) -> Span {
        let Some(b) = self.blocks.get(loc.block.index()) else {
            return Span::DUMMY;
        };
        if loc.is_terminator() {
            b.term_span
        } else {
            b.spans.get(loc.idx).copied().unwrap_or(Span::DUMMY)
        }
    }

    /// Iterates all instruction locations (not terminators) in block order.
    pub fn inst_locs(&self) -> impl Iterator<Item = InstLoc> + '_ {
        let fid = self.id;
        self.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            (0..b.insts.len()).map(move |i| InstLoc {
                func: fid,
                block: BlockId(bi as u32),
                idx: i,
            })
        })
    }

    /// Iterates all locations including terminators.
    pub fn all_locs(&self) -> impl Iterator<Item = InstLoc> + '_ {
        let fid = self.id;
        self.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            (0..b.insts.len())
                .map(move |i| InstLoc {
                    func: fid,
                    block: BlockId(bi as u32),
                    idx: i,
                })
                .chain(std::iter::once(InstLoc::terminator(
                    fid,
                    BlockId(bi as u32),
                )))
        })
    }

    /// Predecessor map: `preds.of(b)` lists the blocks that jump to `b`.
    pub fn predecessors(&self) -> Predecessors {
        let mut preds = Predecessors::default();
        preds.fill(self);
        preds
    }

    /// Renders the body as readable text (for debugging and snapshots).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "func {} ({} params)", self.name, self.param_count);
        for (i, l) in self.locals.iter().enumerate() {
            let _ = writeln!(
                out,
                "  %{i}: {} {}{}",
                l.ty,
                l.name,
                if l.is_temp { " (temp)" } else { "" }
            );
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "bb{bi}:");
            for inst in &b.insts {
                let _ = writeln!(out, "  {inst}");
            }
            let _ = writeln!(out, "  {}", b.terminator);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tac::{Operand, Rvalue};

    fn tiny_body() -> FuncBody {
        let mut b0 = BasicBlock::new();
        b0.insts.push(Inst::Assign {
            dest: LocalId(1),
            rv: Rvalue::Use(Operand::Local(LocalId(0))),
        });
        b0.spans.push(Span::new(2, 1));
        b0.terminator = Terminator::Return(Some(Operand::Local(LocalId(1))));
        FuncBody {
            name: "id".into(),
            id: FuncId(0),
            ret_ty: Type::Int,
            locals: vec![
                LocalDecl {
                    name: "x".into(),
                    ty: Type::Int,
                    is_temp: false,
                    is_param: true,
                    span: Span::new(1, 1),
                },
                LocalDecl {
                    name: "$t0".into(),
                    ty: Type::Int,
                    is_temp: true,
                    is_param: false,
                    span: Span::DUMMY,
                },
            ],
            param_count: 1,
            blocks: vec![b0],
            span: Span::new(1, 1),
        }
    }

    #[test]
    fn lookup_and_iteration() {
        let f = tiny_body();
        assert_eq!(f.local_by_name("x"), Some(LocalId(0)));
        assert_eq!(f.params().collect::<Vec<_>>(), vec![LocalId(0)]);
        assert_eq!(f.inst_locs().count(), 1);
        assert_eq!(f.all_locs().count(), 2);
    }

    #[test]
    fn spans_and_inst_access() {
        let f = tiny_body();
        let loc = f.inst_locs().next().unwrap();
        assert_eq!(f.span_at(loc), Span::new(2, 1));
        assert!(f.inst_at(loc).is_some());
        assert!(f.inst_at(InstLoc::terminator(f.id, f.entry())).is_none());
    }

    #[test]
    fn predecessors_of_linear_flow() {
        let f = tiny_body();
        let preds = f.predecessors();
        assert!(preds.of(BlockId(0)).is_empty());
    }

    #[test]
    fn predecessors_list_every_edge_in_block_order() {
        let mut f = tiny_body();
        let cond = Operand::Local(LocalId(0));
        let mut blocks = vec![BasicBlock::new(); 4];
        blocks[0].terminator = Terminator::Branch {
            cond: cond.clone(),
            then_bb: BlockId(2),
            else_bb: BlockId(2),
        };
        blocks[1].terminator = Terminator::Goto(BlockId(3));
        blocks[2].terminator = Terminator::Switch {
            disc: cond,
            cases: vec![(1, BlockId(1)), (2, BlockId(3))],
            default: BlockId(0),
        };
        blocks[3].terminator = Terminator::Return(None);
        f.blocks = blocks;
        let mut preds = f.predecessors();
        let rows = |p: &Predecessors| {
            (0..4)
                .map(|b| p.of(BlockId(b)).to_vec())
                .collect::<Vec<_>>()
        };
        let b = BlockId;
        let expected = vec![vec![b(2)], vec![b(2)], vec![b(0), b(0)], vec![b(1), b(2)]];
        assert_eq!(rows(&preds), expected);
        // Refilling for a smaller body reuses the buffers and drops the
        // old rows.
        preds.fill(&tiny_body());
        assert!(preds.of(BlockId(0)).is_empty());
    }
}
