//! AST → IR lowering.
//!
//! Produces one [`Module`] per translation unit. Control flow becomes basic
//! blocks; expressions become three-address instructions over local slots;
//! memory accesses become explicit `Load`/`Store` on [`Place`]s with
//! byte-offset field projections.
//!
//! Deviation from C semantics (DESIGN.md, "Known deviations" 2): `&&`/`||`
//! are lowered as strict binary rvalues rather than short-circuit control
//! flow. KIR sources have no side-effecting subexpressions inside
//! conditions (assignments-in-conditions are hoisted before the branch),
//! and the strict form keeps branch conditions symbolically intact for the
//! quasi path-sensitive analysis of §6.1. It does change what the analyses
//! see, not just evaluation order: the second operand's loads are
//! unconditional, so in `if (m == NULL || m->cookie < 0)` the dereference
//! of `m` is reachable with `m == NULL`, and NULL-guard idioms are reported
//! as NPDs (ROADMAP.md, "Short-circuit `&&`/`||`", gives the probe).
//!
//! Names arrive as the unit's interned [`Name`] ids: scopes, labels and the
//! top-level name sets are keyed by id, and a name is turned into text only
//! where the IR stores a `String` (locals, globals, callees, fields).

use crate::body::{BasicBlock, FuncBody, LocalDecl};
use crate::ids::{BlockId, FuncId, LocalId};
use crate::module::{ApiDecl, Binding, GlobalVar, InterfaceDef, InterfaceId, Module};
use crate::tac::{Callee, Inst, Operand, Place, PlaceBase, Projection, Rvalue, Terminator};
use seal_kir::ast::*;
use seal_kir::names::{Name, NameMap, Scopes};
use seal_kir::span::Span;
use seal_kir::types::Type;

/// A structural defect in a lowered module.
///
/// Lowering of a type-checked unit is designed never to produce these, but
/// the fault-isolation contract (DESIGN.md, "Fault tolerance") demands that
/// consumers of foreign or mutated inputs get a typed error rather than an
/// out-of-bounds panic deep inside the PDG or detection layers. The checks
/// mirror exactly the indexing those layers perform unchecked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A function body has no basic blocks (no entry).
    EmptyFunction {
        /// Offending function.
        func: String,
    },
    /// A terminator targets a block outside the body.
    BlockOutOfRange {
        /// Offending function.
        func: String,
        /// The out-of-range target.
        block: u32,
        /// Number of blocks in the body.
        blocks: usize,
    },
    /// An instruction references a local slot outside the body's table.
    LocalOutOfRange {
        /// Offending function.
        func: String,
        /// The out-of-range local.
        local: u32,
        /// Number of declared locals.
        locals: usize,
    },
    /// A block's span table disagrees with its instruction count.
    SpanCountMismatch {
        /// Offending function.
        func: String,
        /// Offending block index.
        block: u32,
    },
    /// `param_count` exceeds the local table.
    ParamCountOutOfRange {
        /// Offending function.
        func: String,
    },
    /// A finished body still contains an `Unreachable` placeholder.
    UnfinishedBlock {
        /// Offending function.
        func: String,
        /// Offending block index.
        block: u32,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::EmptyFunction { func } => {
                write!(f, "function `{func}` lowered to an empty body")
            }
            LowerError::BlockOutOfRange {
                func,
                block,
                blocks,
            } => write!(
                f,
                "function `{func}` jumps to block b{block} but has {blocks} block(s)"
            ),
            LowerError::LocalOutOfRange {
                func,
                local,
                locals,
            } => write!(
                f,
                "function `{func}` references local _{local} but declares {locals} local(s)"
            ),
            LowerError::SpanCountMismatch { func, block } => write!(
                f,
                "function `{func}` block b{block} has mismatched instruction/span tables"
            ),
            LowerError::ParamCountOutOfRange { func } => {
                write!(f, "function `{func}` declares more params than locals")
            }
            LowerError::UnfinishedBlock { func, block } => write!(
                f,
                "function `{func}` block b{block} kept a construction placeholder terminator"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Validates the structural invariants downstream layers index on without
/// bounds checks: block targets, local slots, span tables, and finished
/// terminators. `Ok(())` means the module can be walked panic-free by
/// `seal-pdg` and `seal-core`.
pub fn validate_module(module: &Module) -> Result<(), LowerError> {
    for body in &module.functions {
        let func = || body.name.clone();
        let nblocks = body.blocks.len();
        let nlocals = body.locals.len();
        if nblocks == 0 {
            return Err(LowerError::EmptyFunction { func: func() });
        }
        if body.param_count > nlocals {
            return Err(LowerError::ParamCountOutOfRange { func: func() });
        }
        let check_local = |l: &LocalId| -> Result<(), LowerError> {
            if l.index() >= nlocals {
                return Err(LowerError::LocalOutOfRange {
                    func: func(),
                    local: l.0,
                    locals: nlocals,
                });
            }
            Ok(())
        };
        let check_operand = |op: &Operand| -> Result<(), LowerError> {
            match op.as_local() {
                Some(l) => check_local(&l),
                None => Ok(()),
            }
        };
        let check_place = |place: &Place| -> Result<(), LowerError> {
            if let PlaceBase::Local(l) = &place.base {
                check_local(l)?;
            }
            for p in &place.projections {
                if let Projection::Index { index, .. } = p {
                    check_operand(index)?;
                }
            }
            Ok(())
        };
        for (bi, block) in body.blocks.iter().enumerate() {
            if block.insts.len() != block.spans.len() {
                return Err(LowerError::SpanCountMismatch {
                    func: func(),
                    block: bi as u32,
                });
            }
            for inst in &block.insts {
                if let Some(d) = inst.def() {
                    check_local(&d)?;
                }
                match inst {
                    Inst::Assign { rv, .. } => {
                        for op in rv.operands() {
                            check_operand(op)?;
                        }
                    }
                    Inst::Load { place, .. } | Inst::AddrOf { place, .. } => check_place(place)?,
                    Inst::Store { place, value } => {
                        check_place(place)?;
                        check_operand(value)?;
                    }
                    Inst::Call { callee, args, .. } => {
                        if let Callee::Indirect { ptr, .. } = callee {
                            check_operand(ptr)?;
                        }
                        for a in args {
                            check_operand(a)?;
                        }
                    }
                }
            }
            if matches!(block.terminator, Terminator::Unreachable) {
                return Err(LowerError::UnfinishedBlock {
                    func: func(),
                    block: bi as u32,
                });
            }
            for succ in block.terminator.successors() {
                if succ.index() >= nblocks {
                    return Err(LowerError::BlockOutOfRange {
                        func: func(),
                        block: succ.0,
                        blocks: nblocks,
                    });
                }
            }
            if let Some(op) = block.terminator.operand() {
                check_operand(op)?;
            }
        }
    }
    Ok(())
}

/// [`lower`] followed by [`validate_module`]: the fault-isolated entry the
/// batch pipeline uses, guaranteeing downstream layers a structurally
/// sound module or a typed [`LowerError`].
pub fn lower_checked(tu: &TranslationUnit) -> Result<Module, LowerError> {
    let module = lower(tu);
    validate_module(&module)?;
    Ok(module)
}

/// Lowers a type-checked translation unit into a module.
///
/// # Panics
///
/// Panics if the unit was not type checked (expression types unresolved in
/// ways lowering cannot recover from are reported as `Type::Error` and
/// tolerated, but malformed lvalues panic). Use [`lower_checked`] for the
/// fault-isolated variant that validates the result instead.
pub fn lower(tu: &TranslationUnit) -> Module {
    let _span = seal_obs::span!("ir.lower", unit = tu.file.clone());
    let mut module = Module {
        name: tu.file.clone(),
        structs: tu.structs.clone(),
        ..Default::default()
    };
    let top = TopLevel::of(tu);

    // APIs: every declaration without a body.
    for d in &tu.decls {
        if !top.functions.contains(d.name) {
            module.apis.push(ApiDecl {
                name: tu.name(d.name).to_string(),
                ret: d.ret.clone(),
                params: d.params.iter().map(|p| p.ty.clone()).collect(),
                variadic: d.variadic,
            });
        }
    }

    // Interfaces: function-pointer fields of any struct.
    for def in tu.structs.iter() {
        for field in &def.fields {
            if let Type::Ptr(inner) = &field.ty {
                if let Type::Func(sig) = inner.as_ref() {
                    module.interfaces.push(InterfaceDef {
                        id: InterfaceId::new(&def.name, &field.name),
                        sig: (**sig).clone(),
                    });
                }
            }
        }
    }
    module.interfaces.sort_by(|a, b| a.id.cmp(&b.id));

    // Globals and designated-initializer bindings.
    for g in &tu.globals {
        let const_init = match &g.init {
            Some(Initializer::Expr(e)) => const_eval(e),
            _ => None,
        };
        module.globals.push(GlobalVar {
            name: tu.name(g.name).to_string(),
            ty: g.ty.clone(),
            const_init,
            span: g.span,
        });
        if let (Type::Struct(sname), Some(Initializer::Designated(pairs))) = (&g.ty, &g.init) {
            collect_bindings(tu, &top, sname, pairs, &mut module.bindings);
        }
    }

    // Function bodies. One scope stack serves every function: it is empty
    // again after each, and sizing it once spares a per-function
    // allocation indexed by the unit's name count.
    let mut scopes = Scopes::new();
    for (i, f) in tu.functions.iter().enumerate() {
        let (body, reused) = FunctionLowerer::new(tu, &top, FuncId(i as u32), f, scopes).run();
        scopes = reused;
        module.functions.push(body);
    }
    seal_obs::metrics::counter_add("ir.lower.functions", module.functions.len() as u64);

    // Bindings from stores of function references into interface fields.
    let mut store_bindings = Vec::new();
    for f in &module.functions {
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Store { place, value } = inst {
                    if let (Some((sname, fname)), Operand::FuncRef(func)) =
                        (place.last_field(), value)
                    {
                        let id = InterfaceId::new(sname, fname);
                        if module.interface(&id).is_some() {
                            store_bindings.push(Binding {
                                interface: id,
                                func: func.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    module.bindings.extend(store_bindings);
    module
        .bindings
        .sort_by(|a, b| (&a.interface, &a.func).cmp(&(&b.interface, &b.func)));
    module.bindings.dedup();

    module
}

/// The unit's top-level names, indexed once by id so that resolving an
/// identifier never scans the unit's function or global lists.
struct TopLevel {
    /// Functions with a body.
    functions: NameMap<()>,
    /// Global variables.
    globals: NameMap<()>,
}

impl TopLevel {
    fn of(tu: &TranslationUnit) -> Self {
        let mut top = TopLevel {
            functions: NameMap::new(),
            globals: NameMap::new(),
        };
        for f in &tu.functions {
            top.functions.insert(f.name, ());
        }
        for g in &tu.globals {
            top.globals.insert(g.name, ());
        }
        top
    }
}

fn collect_bindings(
    tu: &TranslationUnit,
    top: &TopLevel,
    struct_name: &str,
    pairs: &[(Name, Initializer)],
    out: &mut Vec<Binding>,
) {
    for (field, init) in pairs {
        let field = tu.name(*field);
        match init {
            Initializer::Expr(e) => {
                if let ExprKind::Ident(fname) = e.kind {
                    if top.functions.contains(fname) {
                        out.push(Binding {
                            interface: InterfaceId::new(struct_name, field),
                            func: tu.name(fname).to_string(),
                        });
                    }
                }
            }
            Initializer::Designated(nested) => {
                // Nested ops table: resolve the field's struct type.
                if let Some(fdef) = tu.structs.get(struct_name).and_then(|d| d.field(field)) {
                    if let Type::Struct(inner) = &fdef.ty {
                        collect_bindings(tu, top, inner, nested, out);
                    }
                }
            }
            Initializer::List(_) => {}
        }
    }
}

/// Best-effort constant folding for global initializers.
fn const_eval(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) | ExprKind::CharLit(v) => Some(*v),
        ExprKind::Null => Some(0),
        ExprKind::Unary(UnOp::Neg, inner) => const_eval(inner).map(|v| -v),
        ExprKind::Unary(UnOp::BitNot, inner) => const_eval(inner).map(|v| !v),
        ExprKind::Binary(op, l, r) => {
            let (a, b) = (const_eval(l)?, const_eval(r)?);
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div if b != 0 => a / b,
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => a.wrapping_shr(b as u32),
                BinOp::BitAnd => a & b,
                BinOp::BitOr => a | b,
                BinOp::BitXor => a ^ b,
                _ => return None,
            })
        }
        _ => None,
    }
}

struct LoopCtx {
    continue_bb: BlockId,
    break_bb: BlockId,
}

struct FunctionLowerer<'a> {
    tu: &'a TranslationUnit,
    top: &'a TopLevel,
    ast_body: &'a Block,
    body: FuncBody,
    current: BlockId,
    /// Scoped name → local map; the function's parameters sit in its
    /// outermost scope.
    scopes: Scopes<LocalId>,
    loops: Vec<LoopCtx>,
    /// `goto` targets, created on first mention (forward or backward). A
    /// function has a handful at most, so a list beats any map.
    labels: Vec<(Name, BlockId)>,
    terminated: bool,
    temp_counter: u32,
}

impl<'a> FunctionLowerer<'a> {
    /// A lowerer for `f`, taking over an empty scope stack.
    fn new(
        tu: &'a TranslationUnit,
        top: &'a TopLevel,
        id: FuncId,
        f: &'a Function,
        mut scopes: Scopes<LocalId>,
    ) -> Self {
        let mut locals = Vec::new();
        scopes.push();
        for p in &f.params {
            let lid = LocalId(locals.len() as u32);
            locals.push(LocalDecl {
                name: tu.name(p.name).to_string(),
                ty: p.ty.clone(),
                is_temp: false,
                is_param: true,
                span: p.span,
            });
            if p.name != Name::EMPTY {
                scopes.declare(p.name, lid);
            }
        }
        let body = FuncBody {
            name: tu.name(f.name).to_string(),
            id,
            ret_ty: f.ret.clone(),
            param_count: locals.len(),
            locals,
            blocks: vec![BasicBlock::new()],
            span: f.span,
        };
        FunctionLowerer {
            tu,
            top,
            ast_body: &f.body,
            body,
            current: BlockId(0),
            scopes,
            loops: vec![],
            labels: Vec::new(),
            terminated: false,
            temp_counter: 0,
        }
    }

    /// Lowers the function; returns its body and the scope stack, empty
    /// again, for the next function.
    fn run(mut self) -> (FuncBody, Scopes<LocalId>) {
        self.lower_block(self.ast_body);
        if !self.terminated {
            self.set_terminator(Terminator::Return(None), Span::DUMMY);
        }
        // Replace any leftover Unreachable terminators on dead blocks with
        // returns so consumers never see construction placeholders.
        for b in &mut self.body.blocks {
            if matches!(b.terminator, Terminator::Unreachable) {
                b.terminator = Terminator::Return(None);
            }
        }
        self.scopes.pop();
        (self.body, self.scopes)
    }

    // ------------------------------------------------------------- plumbing

    fn new_block(&mut self) -> BlockId {
        self.body.blocks.push(BasicBlock::new());
        BlockId(self.body.blocks.len() as u32 - 1)
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        self.terminated = false;
    }

    fn emit(&mut self, inst: Inst, span: Span) {
        if self.terminated {
            // Dead code after return/break; park it in a fresh block.
            let b = self.new_block();
            self.switch_to(b);
        }
        let blk = &mut self.body.blocks[self.current.index()];
        blk.insts.push(inst);
        blk.spans.push(span);
    }

    fn set_terminator(&mut self, t: Terminator, span: Span) {
        if self.terminated {
            return;
        }
        let blk = &mut self.body.blocks[self.current.index()];
        blk.terminator = t;
        blk.term_span = span;
        self.terminated = true;
    }

    fn goto(&mut self, target: BlockId, span: Span) {
        self.set_terminator(Terminator::Goto(target), span);
    }

    fn fresh_temp(&mut self, ty: Type, span: Span) -> LocalId {
        let lid = LocalId(self.body.locals.len() as u32);
        self.body.locals.push(LocalDecl {
            name: format!("$t{}", self.temp_counter),
            ty,
            is_temp: true,
            is_param: false,
            span,
        });
        self.temp_counter += 1;
        lid
    }

    fn declare_named(&mut self, name: Name, ty: Type, span: Span) -> LocalId {
        let lid = LocalId(self.body.locals.len() as u32);
        self.body.locals.push(LocalDecl {
            name: self.tu.name(name).to_string(),
            ty,
            is_temp: false,
            is_param: false,
            span,
        });
        self.scopes.declare(name, lid);
        lid
    }

    /// The block a label names, created on demand.
    fn label_block(&mut self, label: Name) -> BlockId {
        if let Some(&(_, b)) = self.labels.iter().find(|(l, _)| *l == label) {
            return b;
        }
        let b = self.new_block();
        self.labels.push((label, b));
        b
    }

    fn lookup(&self, name: Name) -> Option<LocalId> {
        self.scopes.lookup(name).copied()
    }

    fn is_global(&self, name: Name) -> bool {
        self.top.globals.contains(name)
    }

    /// A name's text, for the IR's `String` fields.
    fn text(&self, name: Name) -> String {
        self.tu.name(name).to_string()
    }

    // ----------------------------------------------------------- statements

    fn lower_block(&mut self, b: &Block) {
        self.scopes.push();
        for s in &b.stmts {
            self.lower_stmt(s);
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        let span = s.span;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let init_op = init.as_ref().map(|e| self.lower_expr(e));
                let lid = self.declare_named(*name, ty.clone(), span);
                if let Some(op) = init_op {
                    self.emit(
                        Inst::Assign {
                            dest: lid,
                            rv: Rvalue::Use(op),
                        },
                        span,
                    );
                }
            }
            StmtKind::Expr(e) => {
                // Evaluate for effect; drop pure results.
                self.lower_expr_for_effect(e);
            }
            StmtKind::Assign { lhs, rhs } => {
                self.lower_assignment(lhs, rhs, span);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.set_terminator(
                    Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb,
                    },
                    cond.span,
                );
                self.switch_to(then_bb);
                self.lower_block(then_blk);
                self.goto(join, span);
                self.switch_to(else_bb);
                if let Some(e) = else_blk {
                    self.lower_block(e);
                }
                self.goto(join, span);
                self.switch_to(join);
            }
            StmtKind::While { cond, body } => {
                let cond_bb = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.goto(cond_bb, span);
                self.switch_to(cond_bb);
                let c = self.lower_expr(cond);
                self.set_terminator(
                    Terminator::Branch {
                        cond: c,
                        then_bb: body_bb,
                        else_bb: exit,
                    },
                    cond.span,
                );
                self.loops.push(LoopCtx {
                    continue_bb: cond_bb,
                    break_bb: exit,
                });
                self.switch_to(body_bb);
                self.lower_block(body);
                self.goto(cond_bb, span);
                self.loops.pop();
                self.switch_to(exit);
            }
            StmtKind::DoWhile { body, cond } => {
                let body_bb = self.new_block();
                let cond_bb = self.new_block();
                let exit = self.new_block();
                self.goto(body_bb, span);
                self.loops.push(LoopCtx {
                    continue_bb: cond_bb,
                    break_bb: exit,
                });
                self.switch_to(body_bb);
                self.lower_block(body);
                self.goto(cond_bb, span);
                self.loops.pop();
                self.switch_to(cond_bb);
                let c = self.lower_expr(cond);
                self.set_terminator(
                    Terminator::Branch {
                        cond: c,
                        then_bb: body_bb,
                        else_bb: exit,
                    },
                    cond.span,
                );
                self.switch_to(exit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push();
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let cond_bb = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let exit = self.new_block();
                self.goto(cond_bb, span);
                self.switch_to(cond_bb);
                match cond {
                    Some(c) => {
                        let op = self.lower_expr(c);
                        self.set_terminator(
                            Terminator::Branch {
                                cond: op,
                                then_bb: body_bb,
                                else_bb: exit,
                            },
                            c.span,
                        );
                    }
                    None => self.goto(body_bb, span),
                }
                self.loops.push(LoopCtx {
                    continue_bb: step_bb,
                    break_bb: exit,
                });
                self.switch_to(body_bb);
                self.lower_block(body);
                self.goto(step_bb, span);
                self.loops.pop();
                self.switch_to(step_bb);
                if let Some(st) = step {
                    self.lower_stmt(st);
                }
                self.goto(cond_bb, span);
                self.scopes.pop();
                self.switch_to(exit);
            }
            StmtKind::Switch { scrutinee, cases } => {
                let disc = self.lower_expr(scrutinee);
                let exit = self.new_block();
                let case_blocks: Vec<BlockId> = cases.iter().map(|_| self.new_block()).collect();
                let mut table = Vec::new();
                let mut default = exit;
                for (case, bb) in cases.iter().zip(&case_blocks) {
                    for l in &case.labels {
                        table.push((*l, *bb));
                    }
                    if case.is_default {
                        default = *bb;
                    }
                }
                self.set_terminator(
                    Terminator::Switch {
                        disc,
                        cases: table,
                        default,
                    },
                    scrutinee.span,
                );
                self.loops.push(LoopCtx {
                    // `continue` inside switch targets the enclosing loop;
                    // reuse it if present, otherwise fall back to exit.
                    continue_bb: self.loops.last().map(|l| l.continue_bb).unwrap_or(exit),
                    break_bb: exit,
                });
                for (i, (case, bb)) in cases.iter().zip(&case_blocks).enumerate() {
                    self.switch_to(*bb);
                    self.lower_block(&case.body);
                    // Fallthrough to the next case (or exit after the last).
                    let next = case_blocks.get(i + 1).copied().unwrap_or(exit);
                    self.goto(next, case.span);
                }
                self.loops.pop();
                self.switch_to(exit);
            }
            StmtKind::Goto(label) => {
                let target = self.label_block(*label);
                self.goto(target, span);
            }
            StmtKind::Label(label) => {
                // Fall through into the labeled block, then continue
                // emitting into it.
                let target = self.label_block(*label);
                self.goto(target, span);
                self.switch_to(target);
            }
            StmtKind::Break => {
                let Some(target) = self.loops.last().map(|l| l.break_bb) else {
                    return;
                };
                self.goto(target, span);
            }
            StmtKind::Continue => {
                let Some(target) = self.loops.last().map(|l| l.continue_bb) else {
                    return;
                };
                self.goto(target, span);
            }
            StmtKind::Return(v) => {
                let op = v.as_ref().map(|e| self.lower_expr(e));
                self.set_terminator(Terminator::Return(op), span);
            }
            StmtKind::Block(b) => self.lower_block(b),
        }
    }

    fn lower_assignment(&mut self, lhs: &Expr, rhs: &Expr, span: Span) {
        // Bare-local destination: let calls/rvalues write it directly.
        if let ExprKind::Ident(name) = lhs.kind {
            if let Some(lid) = self.lookup(name) {
                self.lower_expr_into(rhs, lid, span);
                return;
            }
        }
        let value = self.lower_expr(rhs);
        let place = self.lower_place(lhs);
        self.emit(Inst::Store { place, value }, span);
    }

    /// Lowers `e` writing the result into `dest` (avoids temp-then-copy for
    /// the common `x = call(...)` shape).
    fn lower_expr_into(&mut self, e: &Expr, dest: LocalId, span: Span) {
        match &e.kind {
            ExprKind::Call { .. } => {
                if let Some(op) = self.lower_call(e, Some(dest)) {
                    if op != Operand::Local(dest) {
                        self.emit(
                            Inst::Assign {
                                dest,
                                rv: Rvalue::Use(op),
                            },
                            span,
                        );
                    }
                }
            }
            _ => {
                let op = self.lower_expr(e);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Use(op),
                    },
                    span,
                );
            }
        }
    }

    fn lower_expr_for_effect(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Call { .. } => {
                self.lower_call(e, None);
            }
            ExprKind::AssignExpr { lhs, rhs } => {
                self.lower_assignment(lhs, rhs, e.span);
            }
            _ => {
                let _ = self.lower_expr(e);
            }
        }
    }

    // ---------------------------------------------------------- expressions

    fn lower_expr(&mut self, e: &Expr) -> Operand {
        let span = e.span;
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Operand::Const(*v),
            ExprKind::StrLit(s) => Operand::Str(self.text(*s)),
            ExprKind::Null => Operand::Null,
            ExprKind::Sizeof(ty) => Operand::Const(self.tu.structs.size_of(ty) as i64),
            ExprKind::Ident(name) => {
                let name = *name;
                if let Some(lid) = self.lookup(name) {
                    Operand::Local(lid)
                } else if self.is_global(name) {
                    Operand::Global(self.text(name))
                } else {
                    // A defined function or a declared API; an unknown
                    // identifier survived type checking only as an
                    // implicit API use, so it is a function ref too.
                    Operand::FuncRef(self.text(name))
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let place = self.operand_place(inner, vec![Projection::Deref]);
                let dest = self.fresh_temp(e.ty.clone(), span);
                self.emit(Inst::Load { dest, place }, span);
                Operand::Local(dest)
            }
            ExprKind::Unary(UnOp::Addr, inner) => {
                let place = self.lower_place(inner);
                let dest = self.fresh_temp(e.ty.clone(), span);
                self.emit(Inst::AddrOf { dest, place }, span);
                Operand::Local(dest)
            }
            ExprKind::Unary(op, inner) => {
                let a = self.lower_expr(inner);
                // Fold constant operands (`-ENOMEM` must stay a literal so
                // error-code sources are recognizable).
                if let Operand::Const(c) = a {
                    let folded = match op {
                        UnOp::Neg => Some(-c),
                        UnOp::BitNot => Some(!c),
                        UnOp::Not => Some(i64::from(c == 0)),
                        _ => None,
                    };
                    if let Some(v) = folded {
                        return Operand::Const(v);
                    }
                }
                let dest = self.fresh_temp(e.ty.clone(), span);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Unary(*op, a),
                    },
                    span,
                );
                Operand::Local(dest)
            }
            ExprKind::Binary(op, l, r) => {
                let a = self.lower_expr(l);
                let b = self.lower_expr(r);
                // Constant-fold `-LIT` style negations already handled by
                // Unary; fold trivial const-const arithmetic here.
                if let (Operand::Const(x), Operand::Const(y)) = (&a, &b) {
                    if let Some(v) = fold_binop(*op, *x, *y) {
                        return Operand::Const(v);
                    }
                }
                let dest = self.fresh_temp(e.ty.clone(), span);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Binary(*op, a, b),
                    },
                    span,
                );
                Operand::Local(dest)
            }
            ExprKind::Member { .. } | ExprKind::Index { .. } => {
                let place = self.lower_place(e);
                let dest = self.fresh_temp(e.ty.clone(), span);
                self.emit(Inst::Load { dest, place }, span);
                Operand::Local(dest)
            }
            ExprKind::Cast { expr, .. } => self.lower_expr(expr),
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.lower_expr(cond);
                let dest = self.fresh_temp(e.ty.clone(), span);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.set_terminator(
                    Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb,
                    },
                    span,
                );
                self.switch_to(then_bb);
                let tv = self.lower_expr(then_e);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Use(tv),
                    },
                    span,
                );
                self.goto(join, span);
                self.switch_to(else_bb);
                let ev = self.lower_expr(else_e);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Use(ev),
                    },
                    span,
                );
                self.goto(join, span);
                self.switch_to(join);
                Operand::Local(dest)
            }
            ExprKind::AssignExpr { lhs, rhs } => {
                self.lower_assignment(lhs, rhs, span);
                // The value of an assignment expression is the stored value;
                // re-read the lvalue so later uses depend on the store.
                self.lower_expr(lhs)
            }
            ExprKind::Call { .. } => self.lower_call(e, None).unwrap_or(Operand::Const(0)),
        }
    }

    /// Lowers a call expression. Returns the result operand (None for void).
    fn lower_call(&mut self, e: &Expr, dest_hint: Option<LocalId>) -> Option<Operand> {
        let span = e.span;
        let ExprKind::Call { callee, args } = &e.kind else {
            unreachable!("lower_call on non-call");
        };
        let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr(a)).collect();

        let resolved: Callee = match &callee.kind {
            &ExprKind::Ident(name) if self.lookup(name).is_none() => {
                Callee::Direct(self.text(name))
            }
            // Indirect through a struct field: o->prep(...) — load the
            // pointer, remember the interface identity.
            ExprKind::Member { .. } => {
                let place = self.lower_place(callee);
                let via_field = place
                    .last_field()
                    .map(|(s, f)| (s.to_string(), f.to_string()));
                let ptr_dest = self.fresh_temp(callee.ty.clone(), span);
                self.emit(
                    Inst::Load {
                        dest: ptr_dest,
                        place,
                    },
                    span,
                );
                Callee::Indirect {
                    ptr: Operand::Local(ptr_dest),
                    via_field,
                }
            }
            _ => {
                let ptr = self.lower_expr(callee);
                Callee::Indirect {
                    ptr,
                    via_field: None,
                }
            }
        };

        let is_void = matches!(e.ty, Type::Void);
        let dest = if is_void {
            None
        } else {
            Some(dest_hint.unwrap_or_else(|| self.fresh_temp(e.ty.clone(), span)))
        };
        self.emit(
            Inst::Call {
                dest,
                callee: resolved,
                args: arg_ops,
            },
            span,
        );
        dest.map(Operand::Local)
    }

    // --------------------------------------------------------------- places

    /// Lowers an lvalue expression to a place.
    fn lower_place(&mut self, e: &Expr) -> Place {
        match &e.kind {
            &ExprKind::Ident(name) => {
                if let Some(lid) = self.lookup(name) {
                    Place::local(lid)
                } else {
                    Place::global(self.text(name))
                }
            }
            ExprKind::Member { base, field, arrow } => {
                let field = self.tu.name(*field);
                let (struct_name, offset) = self.field_info(base, field, *arrow);
                let proj = Projection::Field {
                    struct_name,
                    field: field.to_string(),
                    offset,
                };
                if *arrow {
                    self.operand_place(base, vec![Projection::Deref, proj])
                } else {
                    let mut place = self.lower_place(base);
                    place.projections.push(proj);
                    place
                }
            }
            ExprKind::Index { base, index } => {
                let idx = self.lower_expr(index);
                let elem = base
                    .ty
                    .pointee()
                    .map(|t| self.tu.structs.size_of(t))
                    .unwrap_or(1)
                    .max(1);
                let proj = Projection::Index { index: idx, elem };
                match &base.ty {
                    Type::Array(..) => {
                        let mut place = self.lower_place(base);
                        place.projections.push(proj);
                        place
                    }
                    _ => self.operand_place(base, vec![proj]),
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.operand_place(inner, vec![Projection::Deref])
            }
            ExprKind::Cast { expr, .. } => self.lower_place(expr),
            other => {
                // Rvalue used as a place (e.g. call().field): materialize.
                let _ = other;
                let op = self.lower_expr(e);
                let lid = self.force_local(op, e.ty.clone(), e.span);
                Place::local(lid)
            }
        }
    }

    /// Builds a place whose base is the *value* of `base_expr` (a pointer),
    /// with the given projections applied.
    fn operand_place(&mut self, base_expr: &Expr, projections: Vec<Projection>) -> Place {
        // Globals can serve as place bases directly.
        if let ExprKind::Ident(name) = base_expr.kind {
            if self.lookup(name).is_none() && self.is_global(name) {
                return Place {
                    base: PlaceBase::Global(self.text(name)),
                    projections,
                };
            }
        }
        let op = self.lower_expr(base_expr);
        let lid = self.force_local(op, base_expr.ty.clone(), base_expr.span);
        Place {
            base: PlaceBase::Local(lid),
            projections,
        }
    }

    /// Ensures an operand is a local slot, copying constants if needed.
    fn force_local(&mut self, op: Operand, ty: Type, span: Span) -> LocalId {
        match op {
            Operand::Local(l) => l,
            other => {
                let dest = self.fresh_temp(ty, span);
                self.emit(
                    Inst::Assign {
                        dest,
                        rv: Rvalue::Use(other),
                    },
                    span,
                );
                dest
            }
        }
    }

    /// Resolves `(struct tag, byte offset)` for a member access.
    fn field_info(&self, base: &Expr, field: &str, arrow: bool) -> (String, u64) {
        let sname = match (&base.ty, arrow) {
            (Type::Ptr(inner), true) => match inner.as_ref() {
                Type::Struct(n) => n,
                _ => "",
            },
            (Type::Struct(n), false) => n,
            _ => "",
        };
        let offset = self
            .tu
            .structs
            .get(sname)
            .and_then(|d| d.field(field))
            .map(|f| f.offset)
            .unwrap_or(0);
        (sname.to_string(), offset)
    }
}

fn fold_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if b != 0 => a / b,
        BinOp::Rem if b != 0 => a % b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_kir::compile;

    fn lower_src(src: &str) -> Module {
        lower(&compile(src, "t.c").unwrap())
    }

    /// The operand of the first `return <value>` in `func`.
    fn returned(m: &Module, func: &str) -> Operand {
        let body = m.function(func).unwrap();
        body.blocks
            .iter()
            .find_map(|b| match &b.terminator {
                Terminator::Return(Some(op)) => Some(op.clone()),
                _ => None,
            })
            .unwrap()
    }

    /// Whether `func` copies `op` into a local somewhere.
    fn copies(m: &Module, func: &str, op: &Operand) -> bool {
        let body = m.function(func).unwrap();
        body.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Assign { rv: Rvalue::Use(o), .. } if o == op))
    }

    /// Identifiers resolve to the innermost local first, then to a global,
    /// and only then to a function, whatever else shares the name.
    #[test]
    fn names_resolve_local_then_global_then_function() {
        let m = lower_src(
            "int count;\n\
             int helper(int x) { return x; }\n\
             int api(int x);\n\
             int param_shadows_global(int count) { return count; }\n\
             int local_shadows_function(void) { int helper = 3; return helper; }\n\
             int inner_shadows_outer(int x) { if (x) { int count = 2; return count; } return 0; }\n\
             int reads_global(void) { return count; }\n\
             int takes_fn(void) { int (*fp)(int x) = helper; return fp(1); }\n\
             int takes_api(void) { int (*fp)(int x) = api; return fp(1); }",
        );
        let local = |func: &str| match returned(&m, func) {
            Operand::Local(l) => m.function(func).unwrap().locals[l.index()].name.clone(),
            other => panic!("{func} returned {other:?}"),
        };
        assert_eq!(local("param_shadows_global"), "count");
        assert_eq!(local("local_shadows_function"), "helper");
        assert_eq!(local("inner_shadows_outer"), "count");
        assert_eq!(
            returned(&m, "reads_global"),
            Operand::Global("count".into())
        );
        assert!(copies(&m, "takes_fn", &Operand::FuncRef("helper".into())));
        assert!(copies(&m, "takes_api", &Operand::FuncRef("api".into())));
    }

    #[test]
    fn string_literals_lower_as_utf8_text() {
        let m = lower_src("char *f(void) { return \"naïve €\"; }");
        assert_eq!(returned(&m, "f"), Operand::Str("naïve €".into()));
    }

    /// A global that shares a function's name resolves as the global, as
    /// an operand and as a place base.
    #[test]
    fn a_global_shadows_a_same_named_function() {
        let mut tu = compile(
            "struct box { int v; };\n\
             int tag;\n\
             struct box boxed;\n\
             int tag_fn(void) { return 1; }\n\
             int boxed_fn(void) { return 2; }\n\
             int reads(void) { return tag; }\n\
             int reads_field(void) { return boxed.v; }",
            "t.c",
        )
        .unwrap();
        // The checker rejects such a clash in source, so make it in the
        // checked unit: the two functions take the globals' names.
        tu.functions[0].name = tu.names.intern("tag");
        tu.functions[1].name = tu.names.intern("boxed");
        let m = lower(&tu);
        assert_eq!(returned(&m, "reads"), Operand::Global("tag".into()));
        let body = m.function("reads_field").unwrap();
        assert!(body.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::Load { place, .. } if place.base == PlaceBase::Global("boxed".into())
        )));
        assert!(m.function("tag").is_some() && !m.is_api("tag"));
    }

    #[test]
    fn lowered_modules_validate_clean() {
        let m = lower_src(
            "int g(int x);\n\
             int f(int x) { if (x > 0) { return g(x); } return 0; }\n\
             int h(int *p, int n) { int s = 0; while (n > 0) { s = s + p[n]; n = n - 1; } return s; }",
        );
        validate_module(&m).unwrap();
        assert!(lower_checked(&compile("int f(void) { return 1; }", "t.c").unwrap()).is_ok());
    }

    #[test]
    fn validate_rejects_corrupted_modules() {
        let base = lower_src("int f(int x) { if (x > 0) { return 1; } return 0; }");

        let mut m = base.clone();
        m.functions[0].blocks.clear();
        assert!(matches!(
            validate_module(&m),
            Err(LowerError::EmptyFunction { .. })
        ));

        let mut m = base.clone();
        let last = m.functions[0].blocks.len();
        if let Terminator::Branch { then_bb, .. } = &mut m.functions[0].blocks[0].terminator {
            *then_bb = BlockId(last as u32 + 7);
        }
        let err = validate_module(&m).unwrap_err();
        assert!(matches!(err, LowerError::BlockOutOfRange { .. }), "{err}");

        let mut m = base.clone();
        let nlocals = m.functions[0].locals.len();
        if let Some(Inst::Assign { dest, .. }) = m.functions[0].blocks[0].insts.first_mut() {
            *dest = LocalId(nlocals as u32 + 3);
        }
        let err = validate_module(&m).unwrap_err();
        assert!(matches!(err, LowerError::LocalOutOfRange { .. }), "{err}");

        let mut m = base.clone();
        m.functions[0].blocks[0].spans.pop();
        assert!(matches!(
            validate_module(&m),
            Err(LowerError::SpanCountMismatch { .. })
        ));

        let mut m = base.clone();
        m.functions[0].param_count = m.functions[0].locals.len() + 1;
        assert!(matches!(
            validate_module(&m),
            Err(LowerError::ParamCountOutOfRange { .. })
        ));

        let mut m = base;
        m.functions[0].blocks[0].terminator = Terminator::Unreachable;
        let err = validate_module(&m).unwrap_err();
        assert!(matches!(err, LowerError::UnfinishedBlock { .. }), "{err}");
        assert!(err.to_string().contains('f'));
    }

    #[test]
    fn lowers_straight_line() {
        let m = lower_src("int f(int x) { int y = x + 1; return y; }");
        let f = m.function("f").unwrap();
        assert_eq!(f.param_count, 1);
        assert!(f.dump().contains("ret"));
        // x + 1 into temp, copy to y.
        let entry = f.block(f.entry());
        assert!(entry.insts.len() >= 2);
    }

    #[test]
    fn collects_apis_and_interfaces() {
        let m = lower_src(
            "void *dma_alloc_coherent(unsigned long size);\n\
             struct vb2_ops { int (*buf_prepare)(int v); };\n\
             int buffer_prepare(int v) { return v; }\n\
             struct vb2_ops qops = { .buf_prepare = buffer_prepare, };",
        );
        assert!(m.api("dma_alloc_coherent").is_some());
        let iface = InterfaceId::new("vb2_ops", "buf_prepare");
        assert!(m.interface(&iface).is_some());
        assert_eq!(m.implementations(&iface).len(), 1);
        assert_eq!(
            m.interfaces_of("buffer_prepare").collect::<Vec<_>>(),
            vec![&iface]
        );
    }

    /// `interfaces` comes out sorted by id, and `Module::interface` (a
    /// binary search) finds each entry and nothing else.
    #[test]
    fn interfaces_are_sorted_and_each_is_found() {
        let m = lower_src(
            "struct zops { int (*open)(int v); int (*close)(int v); };\n\
             struct aops { int (*run)(int v); int (*stop)(int v); };",
        );
        assert_eq!(m.interfaces.len(), 4);
        assert!(m.interfaces.windows(2).all(|w| w[0].id < w[1].id));
        for def in &m.interfaces {
            assert_eq!(m.interface(&def.id).map(|d| &d.id), Some(&def.id));
        }
        assert!(m.interface(&InterfaceId::new("zops", "run")).is_none());
        assert!(m.interface(&InterfaceId::new("bops", "open")).is_none());
    }

    #[test]
    fn binding_via_store() {
        let m = lower_src(
            "struct ops { int (*cb)(int v); };\n\
             int impl_a(int v) { return v; }\n\
             void reg(struct ops *o) { o->cb = impl_a; }",
        );
        let iface = InterfaceId::new("ops", "cb");
        assert_eq!(m.implementations(&iface).len(), 1);
    }

    #[test]
    fn lowers_branch_and_join() {
        let m = lower_src("int f(int x) { if (x > 0) { return 1; } return 0; }");
        let f = m.function("f").unwrap();
        let entry = f.block(f.entry());
        assert!(matches!(entry.terminator, Terminator::Branch { .. }));
    }

    #[test]
    fn lowers_loop_with_break() {
        let m = lower_src(
            "int f(int n) { int i; for (i = 0; i < n; i++) { if (i == 7) break; } return i; }",
        );
        let f = m.function("f").unwrap();
        assert!(f.blocks.len() >= 5);
    }

    #[test]
    fn lowers_switch_with_fallthrough() {
        let m = lower_src(
            "int f(int s) { int r = 0; switch (s) { case 1: r = 1; case 2: r = r + 2; break; default: r = 9; } return r; }",
        );
        let f = m.function("f").unwrap();
        let sw = f
            .blocks
            .iter()
            .find_map(|b| match &b.terminator {
                Terminator::Switch { cases, .. } => Some(cases.clone()),
                _ => None,
            })
            .expect("switch lowered");
        assert_eq!(sw.len(), 2);
    }

    #[test]
    fn member_store_uses_byte_offset() {
        let m = lower_src(
            "struct risc { int pad; int *cpu; };\n\
             void f(struct risc *r, int *p) { r->cpu = p; }",
        );
        let f = m.function("f").unwrap();
        let store = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Store { place, .. } => Some(place.clone()),
                _ => None,
            })
            .expect("store lowered");
        assert_eq!(store.projections.len(), 2);
        assert!(matches!(
            store.projections[1],
            Projection::Field { offset: 8, .. }
        ));
    }

    #[test]
    fn indirect_call_records_interface() {
        let m = lower_src(
            "struct ops { int (*prep)(int v); };\n\
             int f(struct ops *o) { return o->prep(3); }",
        );
        let f = m.function("f").unwrap();
        let via = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Call {
                    callee: Callee::Indirect { via_field, .. },
                    ..
                } => via_field.clone(),
                _ => None,
            });
        assert_eq!(via, Some(("ops".to_string(), "prep".to_string())));
    }

    #[test]
    fn call_result_into_named_local() {
        let m = lower_src(
            "void *kmalloc(unsigned long n);\n\
             int f(void) { void *p; p = kmalloc(8); if (p == NULL) return -1; return 0; }",
        );
        let f = m.function("f").unwrap();
        // The call writes p directly (no extra copy).
        let p = f.local_by_name("p").unwrap();
        let call_dest = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Call { dest, .. } => *dest,
                _ => None,
            });
        assert_eq!(call_dest, Some(p));
    }

    #[test]
    fn global_const_init_folds() {
        let m = lower_src("int threshold = 3 * 10;");
        assert_eq!(m.globals[0].const_init, Some(30));
    }

    #[test]
    fn ternary_produces_joined_temp() {
        let m = lower_src("int f(int a) { return a > 0 ? a : -a; }");
        let f = m.function("f").unwrap();
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn array_index_place() {
        let m = lower_src("void f(char *buf, int i, char c) { buf[i] = c; }");
        let f = m.function("f").unwrap();
        let store = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Store { place, .. } => Some(place.clone()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(store.projections[0], Projection::Index { .. }));
    }

    #[test]
    fn nested_field_chain() {
        let m = lower_src(
            "struct inner { int x; };\n\
             struct outer { struct inner in; };\n\
             int f(struct outer *o) { return o->in.x; }",
        );
        let f = m.function("f").unwrap();
        let load = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Load { place, .. } => Some(place.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(load.projections.len(), 3); // deref, .in, .x
    }

    #[test]
    fn dead_code_after_return_is_isolated() {
        let m = lower_src("int f(void) { return 1; return 2; }");
        let f = m.function("f").unwrap();
        // Entry terminates with ret 1; the dead return lives elsewhere.
        assert!(matches!(
            f.block(f.entry()).terminator,
            Terminator::Return(Some(Operand::Const(1)))
        ));
    }

    #[test]
    fn do_while_lowering() {
        let m = lower_src("int f(int n) { do { n = n - 1; } while (n > 0); return n; }");
        let f = m.function("f").unwrap();
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn goto_jumps_to_label_block() {
        let m = lower_src(
            "void release(int *p);\n\
             int f(int *p, int x) {\n\
               if (x < 0) goto out;\n\
               return 0;\n\
             out:\n\
               release(p);\n\
               return -22;\n\
             }",
        );
        let f = m.function("f").unwrap();
        // The error block calls release and returns -22.
        let err_block = f
            .blocks
            .iter()
            .find(|b| matches!(b.terminator, Terminator::Return(Some(Operand::Const(-22)))))
            .expect("error block exists");
        assert!(err_block
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Call { .. })));
        // Some branch leads (transitively) to it.
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.terminator, Terminator::Branch { .. })));
    }

    #[test]
    fn backward_goto_forms_loop() {
        let m = lower_src(
            "int f(int n) {\nagain:\n  n = n - 1;\n  if (n > 0) goto again;\n  return n;\n}",
        );
        let f = m.function("f").unwrap();
        // A back edge exists: some block jumps to an earlier block.
        let has_back_edge = f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.terminator.successors().iter().any(|s| s.index() <= i));
        assert!(has_back_edge, "{}", f.dump());
    }

    #[test]
    fn assignment_in_condition_lowering() {
        let m = lower_src(
            "void *g(void);\nint f(void) { void *p; if ((p = g()) == NULL) return 1; return 0; }",
        );
        let f = m.function("f").unwrap();
        // p gets the call result, then the branch condition compares p.
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Call { dest: Some(_), .. })));
    }
}
