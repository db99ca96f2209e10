//! The program dependence graph of Def. 6.1.
//!
//! Nodes are IR statements plus pseudo-nodes for formal parameters, return
//! aggregation, global definitions, and constant arguments. Edges:
//!
//! * `E_d` — def-use over locals (flow-sensitive reaching definitions),
//!   store→load memory dependence via the access-path alias analysis, and
//!   inter-procedural actual→formal / return→receiver binding within the
//!   analysis scope,
//! * `E_c` — control dependence from [`crate::domtree`],
//! * `E_o` — the per-function order `Ω` (reverse post-order block index and
//!   in-block position).
//!
//! PDGs are built *on demand* for a set of functions (paper §7,
//! "Demand-driven PDG Generation").

use crate::arena::{Csr, EdgeArena};
use crate::cell::{Cell, CellRoot};
use crate::domtree::{BranchEdge, ControlFacts};
use crate::points_to::PointsTo;
use seal_ir::body::FuncBody;
use seal_ir::callgraph::{CallGraph, CallTarget};
use seal_ir::ids::{BlockId, FuncId, InstLoc, LocalId};
use seal_ir::module::Module;
use seal_ir::tac::{Callee, Inst, Operand, Place, PlaceBase, Projection, Rvalue, Terminator};
use seal_runtime::FxHashMap;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Index of a PDG node.
pub type NodeId = u32;

/// What a PDG node stands for.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// An instruction or block terminator.
    Inst(InstLoc),
    /// A formal parameter (initial definition of the parameter local).
    Param {
        /// Owning function.
        func: FuncId,
        /// Parameter index.
        index: usize,
    },
    /// Aggregation point for a function's return values.
    Ret {
        /// Owning function.
        func: FuncId,
    },
    /// The ambient definition of a global variable.
    GlobalDef {
        /// Global name.
        name: String,
    },
    /// A constant passed directly as a call argument (kept as a node so
    /// literal error codes flow into callees, e.g. `f(-ENOMEM)`).
    ConstArg {
        /// Call site.
        loc: InstLoc,
        /// Argument index.
        index: usize,
        /// The literal value.
        value: i64,
    },
}

/// How a node consumes a value arriving over a data edge — the basis for
/// classifying path sinks into the `U` domain of Fig. 2.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UseKind {
    /// Passed to an API as argument `index`.
    ApiArg {
        /// API name.
        api: String,
        /// Argument position (0-based).
        index: usize,
    },
    /// Returned from the function (interface return when the function is
    /// bound to an interface).
    FuncRet {
        /// Returning function.
        func: String,
    },
    /// Stored to a global variable.
    GlobalStore {
        /// Global name.
        name: String,
    },
    /// Used as the base pointer of a memory access.
    Deref,
    /// Used as a divisor.
    Div,
    /// Used as an array index.
    IndexUse,
    /// Used inside a branch condition.
    CondUse,
    /// Passed to a defined function / flows through an intermediate
    /// computation.
    Intermediate,
}

impl UseKind {
    /// Whether this use terminates forward slicing (a Fig. 2 `U` element).
    pub fn is_sink(&self) -> bool {
        !matches!(self, UseKind::Intermediate | UseKind::CondUse)
    }
}

/// Per-node order stamp implementing `Ω`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Omega {
    /// Owning function.
    pub func: FuncId,
    /// Block order (reverse post-order index).
    pub block: u32,
    /// Position within the block (terminators sort last).
    pub idx: u32,
}

/// Sentinel in `ctrl_of` for nodes with no control dependences.
const NO_CTRL: u32 = u32::MAX;

/// Adjacency storage for a [`Pdg`].
///
/// Edges accumulate in a single [`EdgeArena`] log during construction
/// (`Log`) and finalize once into two compressed-sparse-row tables (`Csr`)
/// plus per-*block* control lists that nodes reference by id — a handful
/// of large allocations, freed wholesale with the PDG, instead of one
/// vector per node per direction (thousands of small allocations per
/// build, which collapse multi-worker scaling under allocator pressure).
/// Each row keeps edge insertion order, first occurrence winning.
enum Store {
    Log {
        edges: EdgeArena,
        ctrl_of: Vec<u32>,
        ctrl_lists: Vec<Vec<(NodeId, BranchEdge)>>,
    },
    Csr {
        succ: Csr,
        pred: Csr,
        ctrl_of: Vec<u32>,
        ctrl_lists: Vec<Vec<(NodeId, BranchEdge)>>,
    },
}

/// The program dependence graph for a scope of functions.
pub struct Pdg<'m> {
    /// Underlying module.
    pub module: &'m Module,
    /// Functions included in this demand-built PDG.
    pub scope: BTreeSet<FuncId>,
    /// Node table.
    pub nodes: Vec<NodeKind>,
    /// Node ids by kind, for every kind but [`NodeKind::GlobalDef`]. This
    /// and the two maps below key on ids only and are point-queried, never
    /// iterated, so they use the cheap [`FxHashMap`]: its hash order cannot
    /// reach output, and no key comes from the analyzed source.
    index: FxHashMap<NodeKind, NodeId>,
    /// `GlobalDef` node ids by global name. Names come from the analyzed
    /// source, so this map keeps the collision-resistant default hasher.
    global_defs: HashMap<String, NodeId>,
    store: Store,
    omega: Vec<Option<Omega>>,
    /// Defining nodes for each (consumer node, local) pair, for condition
    /// symbolization.
    op_defs: FxHashMap<(NodeId, LocalId), Vec<NodeId>>,
    /// Call-site nodes feeding each Param node (for context-sensitive
    /// conditions: a helper called under a guard inherits the guard).
    param_sites: FxHashMap<NodeId, Vec<NodeId>>,
    /// Per-function points-to facts.
    pub pts: HashMap<FuncId, PointsTo>,
    /// Per-function control facts.
    pub control: HashMap<FuncId, ControlFacts>,
}

/// A typed failure of PDG construction, for callers that feed it scopes
/// derived from foreign inputs (the fault-isolated detection pipeline)
/// rather than scopes they computed from the same module themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdgError {
    /// A scope id does not name a function of the module.
    ScopeFunctionMissing {
        /// The out-of-range id.
        func: FuncId,
        /// Number of functions in the module.
        functions: usize,
    },
}

impl std::fmt::Display for PdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdgError::ScopeFunctionMissing { func, functions } => write!(
                f,
                "PDG scope names {func} but the module has {functions} function(s)"
            ),
        }
    }
}

impl std::error::Error for PdgError {}

impl<'m> Pdg<'m> {
    /// [`Pdg::build`] with the scope validated first: every id must name a
    /// function of `module`, otherwise a typed [`PdgError`] comes back
    /// instead of an out-of-bounds panic mid-construction.
    pub fn try_build(
        module: &'m Module,
        cg: &CallGraph,
        scope: &BTreeSet<FuncId>,
    ) -> Result<Self, PdgError> {
        let functions = module.functions.len();
        for &fid in scope {
            if fid.index() >= functions {
                return Err(PdgError::ScopeFunctionMissing {
                    func: fid,
                    functions,
                });
            }
        }
        Ok(Self::build(module, cg, scope))
    }

    /// Builds the PDG for the given functions (and interprocedural edges
    /// among them).
    pub fn build(module: &'m Module, cg: &CallGraph, scope: &BTreeSet<FuncId>) -> Self {
        let _span = seal_obs::span!("pdg.build", funcs = scope.len());
        let mut pdg = Pdg {
            module,
            scope: scope.clone(),
            nodes: Vec::new(),
            index: FxHashMap::default(),
            global_defs: HashMap::new(),
            store: Store::Log {
                edges: EdgeArena::new(),
                ctrl_of: Vec::new(),
                ctrl_lists: Vec::new(),
            },
            omega: Vec::new(),
            op_defs: FxHashMap::default(),
            param_sites: FxHashMap::default(),
            pts: HashMap::new(),
            control: HashMap::new(),
        };
        for &fid in scope {
            let body = module.body(fid);
            pdg.pts.insert(fid, PointsTo::compute(body));
            let control = ControlFacts::compute(body);
            pdg.add_function_nodes(body, &control.order);
            pdg.control.insert(fid, control);
        }
        for &fid in scope {
            pdg.add_local_def_use(module.body(fid));
            pdg.add_memory_edges(module.body(fid));
            pdg.add_control_edges(module.body(fid));
        }
        pdg.add_interprocedural_edges(cg);
        pdg.finalize_store();
        seal_obs::metrics::counter_add("pdg.builds", 1);
        seal_obs::metrics::counter_add("pdg.nodes", pdg.nodes.len() as u64);
        seal_obs::metrics::counter_add("pdg.edges", pdg.edge_count() as u64);
        seal_obs::metrics::hist_observe("pdg.nodes_per_build", pdg.nodes.len() as u64);
        pdg
    }

    /// Scatters the edge log into CSR form; construction is over once this
    /// runs (`add_edge` would panic).
    fn finalize_store(&mut self) {
        if let Store::Log {
            edges,
            ctrl_of,
            ctrl_lists,
        } = &mut self.store
        {
            let (succ, pred) = std::mem::take(edges).finalize(self.nodes.len());
            self.store = Store::Csr {
                succ,
                pred,
                ctrl_of: std::mem::take(ctrl_of),
                ctrl_lists: std::mem::take(ctrl_lists),
            };
        }
    }

    // ------------------------------------------------------------ accessors

    /// Node id for a kind, if present.
    pub fn node(&self, kind: &NodeKind) -> Option<NodeId> {
        match kind {
            NodeKind::GlobalDef { name } => self.global_defs.get(name),
            _ => self.index.get(kind),
        }
        .copied()
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> &NodeKind {
        &self.nodes[n as usize]
    }

    /// Data-dependence successors.
    pub fn data_succs(&self, n: NodeId) -> &[NodeId] {
        match &self.store {
            Store::Csr { succ, .. } => succ.row(n),
            // Construction phases only consult `node()`/`op_defs`; reading
            // adjacency before `finalize_store` is a phase-order bug.
            Store::Log { .. } => unreachable!("adjacency read before finalize"),
        }
    }

    /// Data-dependence predecessors.
    pub fn data_preds(&self, n: NodeId) -> &[NodeId] {
        match &self.store {
            Store::Csr { pred, .. } => pred.row(n),
            Store::Log { .. } => unreachable!("adjacency read before finalize"),
        }
    }

    /// Direct control dependences of a node.
    pub fn ctrl_deps(&self, n: NodeId) -> &[(NodeId, BranchEdge)] {
        match &self.store {
            Store::Log {
                ctrl_of,
                ctrl_lists,
                ..
            }
            | Store::Csr {
                ctrl_of,
                ctrl_lists,
                ..
            } => match ctrl_of[n as usize] {
                NO_CTRL => &[],
                id => &ctrl_lists[id as usize],
            },
        }
    }

    /// Total edge count (`E_d` + `E_c`), for sizing/metrics. Control
    /// dependences count per *node*: each block's list is stored once, but
    /// stands for one edge set per referencing node.
    pub fn edge_count(&self) -> usize {
        let ctrl_per_node = |ctrl_of: &[u32], ctrl_lists: &[Vec<(NodeId, BranchEdge)>]| {
            ctrl_of
                .iter()
                .map(|&id| match id {
                    NO_CTRL => 0,
                    id => ctrl_lists[id as usize].len(),
                })
                .sum::<usize>()
        };
        match &self.store {
            Store::Log {
                edges,
                ctrl_of,
                ctrl_lists,
            } => edges.len() + ctrl_per_node(ctrl_of, ctrl_lists),
            Store::Csr {
                succ,
                ctrl_of,
                ctrl_lists,
                ..
            } => succ.entries() + ctrl_per_node(ctrl_of, ctrl_lists),
        }
    }

    /// Order stamp (absent for pseudo-nodes like globals).
    pub fn omega(&self, n: NodeId) -> Option<Omega> {
        self.omega[n as usize]
    }

    /// The function owning a node, when it has one.
    pub fn func_of(&self, n: NodeId) -> Option<FuncId> {
        match self.kind(n) {
            NodeKind::Inst(loc) | NodeKind::ConstArg { loc, .. } => Some(loc.func),
            NodeKind::Param { func, .. } | NodeKind::Ret { func } => Some(*func),
            NodeKind::GlobalDef { .. } => None,
        }
    }

    /// Source line of a node (0 when unknown).
    pub fn line_of(&self, n: NodeId) -> u32 {
        match self.kind(n) {
            NodeKind::Inst(loc) | NodeKind::ConstArg { loc, .. } => {
                self.module.body(loc.func).span_at(*loc).line
            }
            NodeKind::Param { func, index } => {
                let body = self.module.body(*func);
                body.locals
                    .get(*index)
                    .map(|l| l.span.line)
                    .unwrap_or(body.span.line)
            }
            NodeKind::Ret { func } => self.module.body(*func).span.line,
            NodeKind::GlobalDef { name } => self.module.global(name).map_or(0, |g| g.span.line),
        }
    }

    /// The instruction behind a node, when it is an instruction node.
    pub fn inst(&self, n: NodeId) -> Option<&Inst> {
        match self.kind(n) {
            NodeKind::Inst(loc) if !loc.is_terminator() => self.module.body(loc.func).inst_at(*loc),
            _ => None,
        }
    }

    /// The terminator behind a node, when it is a terminator node.
    pub fn terminator(&self, n: NodeId) -> Option<&Terminator> {
        match self.kind(n) {
            NodeKind::Inst(loc) if loc.is_terminator() => {
                Some(&self.module.body(loc.func).block(loc.block).terminator)
            }
            _ => None,
        }
    }

    /// Call sites that bind arguments into a Param node.
    pub fn param_call_sites(&self, param: NodeId) -> &[NodeId] {
        self.param_sites
            .get(&param)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The defining nodes of `local` as observed by consumer node `n`.
    pub fn defs_of_operand(&self, n: NodeId, local: LocalId) -> &[NodeId] {
        self.op_defs
            .get(&(n, local))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Classifies how `use_node` consumes the value defined by `def_node`.
    pub fn use_kind(&self, def_node: NodeId, use_node: NodeId) -> UseKind {
        let defined_local = self.defined_local(def_node);
        // Terminators.
        if let Some(t) = self.terminator(use_node) {
            return match t {
                Terminator::Return(_) => {
                    let func = self.func_of(use_node).expect("terminator has a function");
                    UseKind::FuncRet {
                        func: self.module.body(func).name.clone(),
                    }
                }
                Terminator::Branch { .. } | Terminator::Switch { .. } => UseKind::CondUse,
                _ => UseKind::Intermediate,
            };
        }
        let Some(inst) = self.inst(use_node) else {
            // Param/Ret pseudo-nodes forward values.
            return UseKind::Intermediate;
        };
        match inst {
            Inst::Call { callee, args, .. } => {
                let api = match callee {
                    Callee::Direct(name) if self.module.is_api(name) => Some(name.clone()),
                    _ => None,
                };
                if let (Some(api), Some(l)) = (api, defined_local) {
                    if let Some(index) = args.iter().position(|a| a.as_local() == Some(l)) {
                        return UseKind::ApiArg { api, index };
                    }
                }
                UseKind::Intermediate
            }
            Inst::Store { place, value } => {
                if let Some(l) = defined_local {
                    if self.place_uses_local_as_base(place, l) {
                        return UseKind::Deref;
                    }
                    if value.as_local() == Some(l) {
                        if let PlaceBase::Global(g) = &place.base {
                            if place.projections.is_empty() {
                                return UseKind::GlobalStore { name: g.clone() };
                            }
                        }
                        return UseKind::Intermediate;
                    }
                    if place.projections.iter().any(
                        |p| matches!(p, Projection::Index { index, .. } if index.as_local() == Some(l)),
                    ) {
                        return UseKind::IndexUse;
                    }
                }
                // Memory edge into a store (value came via memory).
                UseKind::Intermediate
            }
            Inst::Load { place, .. } => {
                if let Some(l) = defined_local {
                    if self.place_uses_local_as_base(place, l) {
                        return UseKind::Deref;
                    }
                    if place.projections.iter().any(
                        |p| matches!(p, Projection::Index { index, .. } if index.as_local() == Some(l)),
                    ) {
                        return UseKind::IndexUse;
                    }
                }
                UseKind::Intermediate
            }
            Inst::Assign { rv, .. } => {
                if let (Rvalue::Binary(op, _, rhs), Some(l)) = (rv, defined_local) {
                    if matches!(op, seal_kir::ast::BinOp::Div | seal_kir::ast::BinOp::Rem)
                        && rhs.as_local() == Some(l)
                    {
                        return UseKind::Div;
                    }
                }
                UseKind::Intermediate
            }
            Inst::AddrOf { .. } => UseKind::Intermediate,
        }
    }

    /// Allocation-free mirror of `use_kind(..).is_sink()`: whether the
    /// `def_node → use_node` edge classifies as a `U`-domain use, without
    /// cloning any API/function/global name. The path-search hot loop calls
    /// this per edge and only renders the full [`UseKind`] for edges that
    /// actually sink (see `slice`'s enumeration and the sink-reachability
    /// pre-pass).
    pub fn is_sink_edge(&self, def_node: NodeId, use_node: NodeId) -> bool {
        let defined_local = self.defined_local(def_node);
        if let Some(t) = self.terminator(use_node) {
            // `Return` edges are `FuncRet` sinks; branches and switches are
            // `CondUse`, everything else `Intermediate` — both non-sinks.
            return matches!(t, Terminator::Return(_));
        }
        let Some(inst) = self.inst(use_node) else {
            return false; // Param/Ret pseudo-nodes forward values.
        };
        match inst {
            Inst::Call { callee, args, .. } => {
                let is_api = matches!(callee, Callee::Direct(name) if self.module.is_api(name));
                match (is_api, defined_local) {
                    (true, Some(l)) => args.iter().any(|a| a.as_local() == Some(l)),
                    _ => false,
                }
            }
            Inst::Store { place, value } => {
                if let Some(l) = defined_local {
                    if self.place_uses_local_as_base(place, l) {
                        return true; // Deref
                    }
                    if value.as_local() == Some(l) {
                        // GlobalStore sinks; local stores are Intermediate.
                        return matches!(&place.base, PlaceBase::Global(_))
                            && place.projections.is_empty();
                    }
                    return place.projections.iter().any(
                        |p| matches!(p, Projection::Index { index, .. } if index.as_local() == Some(l)),
                    ); // IndexUse
                }
                false
            }
            Inst::Load { place, .. } => {
                if let Some(l) = defined_local {
                    if self.place_uses_local_as_base(place, l) {
                        return true; // Deref
                    }
                    return place.projections.iter().any(
                        |p| matches!(p, Projection::Index { index, .. } if index.as_local() == Some(l)),
                    ); // IndexUse
                }
                false
            }
            Inst::Assign { rv, .. } => {
                matches!(
                    (rv, defined_local),
                    (Rvalue::Binary(seal_kir::ast::BinOp::Div | seal_kir::ast::BinOp::Rem, _, rhs), Some(l))
                        if rhs.as_local() == Some(l)
                ) // Div
            }
            Inst::AddrOf { .. } => false,
        }
    }

    /// The local a node defines, if any.
    pub fn defined_local(&self, n: NodeId) -> Option<LocalId> {
        match self.kind(n) {
            NodeKind::Inst(loc) if !loc.is_terminator() => {
                self.module.body(loc.func).inst_at(*loc)?.def()
            }
            NodeKind::Param { func, index } => {
                let _ = func;
                Some(LocalId(*index as u32))
            }
            _ => None,
        }
    }

    fn place_uses_local_as_base(&self, place: &Place, l: LocalId) -> bool {
        place.is_indirect() && place.base == PlaceBase::Local(l)
    }

    /// True when the node is a statement inside the given function.
    pub fn in_func(&self, n: NodeId, f: FuncId) -> bool {
        self.func_of(n) == Some(f)
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // --------------------------------------------------------- construction

    fn intern(&mut self, kind: NodeKind) -> NodeId {
        if let Some(id) = self.node(&kind) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        match &kind {
            NodeKind::GlobalDef { name } => self.global_defs.insert(name.clone(), id),
            _ => self.index.insert(kind.clone(), id),
        };
        self.nodes.push(kind);
        self.omega.push(None);
        match &mut self.store {
            Store::Log { ctrl_of, .. } => ctrl_of.push(NO_CTRL),
            Store::Csr { .. } => unreachable!("node interned after finalize"),
        }
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        match &mut self.store {
            Store::Log { edges, .. } => {
                edges.push(from, to);
            }
            Store::Csr { .. } => unreachable!("edge added after finalize"),
        }
    }

    /// Interns a function's nodes; `block_order` is its blocks' reverse
    /// post-order index (the `Ω` block stamp).
    fn add_function_nodes(&mut self, body: &FuncBody, block_order: &[u32]) {
        for i in 0..body.param_count {
            self.intern(NodeKind::Param {
                func: body.id,
                index: i,
            });
        }
        let mut has_ret_value = false;
        for loc in body.all_locs() {
            let n = self.intern(NodeKind::Inst(loc));
            let idx = if loc.is_terminator() {
                u32::MAX
            } else {
                loc.idx as u32
            };
            self.omega[n as usize] = Some(Omega {
                func: body.id,
                block: block_order[loc.block.index()],
                idx,
            });
            if loc.is_terminator() {
                if let Terminator::Return(Some(_)) = body.block(loc.block).terminator {
                    has_ret_value = true;
                }
            }
        }
        if has_ret_value {
            self.intern(NodeKind::Ret { func: body.id });
        }
    }

    /// Reaching-definitions def-use for locals, plus `op_defs` bookkeeping.
    ///
    /// A definition set is a sorted, duplicate-free list of `(local,
    /// defining node)` pairs: the same facts as a map from each local to
    /// its defining nodes, read back per local in ascending node order.
    fn add_local_def_use(&mut self, body: &FuncBody) {
        let nblocks = body.blocks.len();
        // Each block's generated definitions: the last definition of every
        // local it assigns. The transfer function kills those locals and
        // adds these pairs, so it is pure in the in-set.
        let gens: Vec<Defs> = (0..nblocks).map(|b| self.block_gen(body, b)).collect();
        let mut in_sets: Vec<Defs> = vec![Defs::new(); nblocks];
        // Entry: parameters defined by Param nodes.
        in_sets[0] = (0..body.param_count)
            .filter_map(|i| {
                let n = self.node(&NodeKind::Param {
                    func: body.id,
                    index: i,
                })?;
                Some((LocalId(i as u32), n))
            })
            .collect();

        let preds = body.predecessors();
        // Each block's out-set, kept until its in-set changes.
        let mut out_sets: Vec<Option<Defs>> = vec![None; nblocks];
        // Iterate to fixpoint (monotone union + strong per-local kill).
        loop {
            let mut changed = false;
            for b in 0..nblocks {
                let mut cur = in_sets[b].clone();
                if b != 0 {
                    for p in &preds[b] {
                        let p = p.index();
                        let out =
                            out_sets[p].get_or_insert_with(|| block_out(&in_sets[p], &gens[p]));
                        cur.extend_from_slice(out);
                    }
                    cur.sort_unstable();
                    cur.dedup();
                }
                if cur != in_sets[b] {
                    in_sets[b] = cur;
                    out_sets[b] = None;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Walk blocks, recording uses and updating defs.
        for (b, in_set) in in_sets.iter().enumerate() {
            let mut defs = in_set.clone();
            let block = &body.blocks[b];
            for (i, inst) in block.insts.iter().enumerate() {
                let loc = InstLoc {
                    func: body.id,
                    block: BlockId(b as u32),
                    idx: i,
                };
                let n = self.node(&NodeKind::Inst(loc)).expect("node interned");
                // Calls to defined in-scope functions don't flow their
                // arguments through the call node: the precise flow goes
                // through the callee's Param/Ret binding. API calls do (the
                // paper assumes APIs may read/propagate their arguments).
                let precise_callee = matches!(
                    inst,
                    Inst::Call { callee: Callee::Direct(name), .. }
                        if self
                            .module
                            .func_id(name)
                            .map(|id| self.scope.contains(&id))
                            .unwrap_or(false)
                );
                for op in inst.uses() {
                    if let Some(l) = op.as_local() {
                        let def_nodes: Vec<NodeId> = defs_of(&defs, l).collect();
                        if !precise_callee {
                            for &d in &def_nodes {
                                self.add_edge(d, n);
                            }
                        }
                        self.op_defs.insert((n, l), def_nodes);
                    }
                }
                if let Some(d) = inst.def() {
                    let at = defs.partition_point(|&(l, _)| l < d);
                    let end = defs.partition_point(|&(l, _)| l <= d);
                    defs.splice(at..end, [(d, n)]);
                }
            }
            // Terminator uses.
            let tloc = InstLoc::terminator(body.id, BlockId(b as u32));
            let tn = self.node(&NodeKind::Inst(tloc)).expect("node interned");
            if let Some(op) = block.terminator.operand() {
                if let Some(l) = op.as_local() {
                    let def_nodes: Vec<NodeId> = defs_of(&defs, l).collect();
                    for &d in &def_nodes {
                        self.add_edge(d, tn);
                    }
                    self.op_defs.insert((tn, l), def_nodes);
                }
            }
            // Return value aggregation.
            if let Terminator::Return(Some(_)) = block.terminator {
                if let Some(ret) = self.node(&NodeKind::Ret { func: body.id }) {
                    self.add_edge(tn, ret);
                }
            }
        }
    }

    /// The definitions block `b` generates: the last defining node of each
    /// local it assigns, sorted by local.
    fn block_gen(&self, body: &FuncBody, b: usize) -> Defs {
        let mut last: BTreeMap<LocalId, NodeId> = BTreeMap::new();
        for (i, inst) in body.blocks[b].insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                let loc = InstLoc {
                    func: body.id,
                    block: BlockId(b as u32),
                    idx: i,
                };
                if let Some(n) = self.node(&NodeKind::Inst(loc)) {
                    last.insert(d, n);
                }
            }
        }
        last.into_iter().collect()
    }

    /// Store→load memory dependence via reaching stores over cells.
    fn add_memory_edges(&mut self, body: &FuncBody) {
        type Mem = Vec<(Cell, NodeId)>;
        // Cloned so edge insertion below can borrow `self` mutably.
        let pts = self.pts[&body.id].clone();
        let pts = &pts;
        let nblocks = body.blocks.len();

        // Collect per-block gen/kill up front by simulating each block.
        let preds = body.predecessors();
        let mut in_sets: Vec<Mem> = vec![Vec::new(); nblocks];
        let simulate = |mem_in: &Mem, b: usize, pdg: &Pdg<'m>| -> Mem {
            let mut mem = mem_in.clone();
            for (i, inst) in body.blocks[b].insts.iter().enumerate() {
                let loc = InstLoc {
                    func: body.id,
                    block: BlockId(b as u32),
                    idx: i,
                };
                let Some(n) = pdg.node(&NodeKind::Inst(loc)) else {
                    continue;
                };
                match inst {
                    Inst::Store { place, .. } => {
                        let cells = pts.cells_of_place(place);
                        // Strong update only when the store names a single
                        // must-aliasable cell.
                        if cells.len() == 1 {
                            let c0 = cells[0].clone();
                            mem.retain(|(c, _)| !c.must_alias(&c0));
                        }
                        for c in cells {
                            mem.push((c, n));
                        }
                    }
                    Inst::Call { args, .. } => {
                        // A call may write through pointer arguments.
                        for a in args {
                            for target in pts.of_operand(a) {
                                let mut summary = target.clone();
                                summary.summary = true;
                                mem.push((summary, n));
                            }
                        }
                    }
                    _ => {}
                }
            }
            dedup_mem(&mut mem);
            mem
        };

        // Each block's out-state, kept until its in-state changes.
        let mut out_sets: Vec<Option<Mem>> = vec![None; nblocks];
        loop {
            let mut changed = false;
            for b in 0..nblocks {
                let mut cur: Mem = Vec::new();
                for p in &preds[b] {
                    let p = p.index();
                    let out = out_sets[p].get_or_insert_with(|| simulate(&in_sets[p], p, self));
                    cur.extend(out.iter().cloned());
                }
                dedup_mem(&mut cur);
                if cur != in_sets[b] {
                    in_sets[b] = cur;
                    out_sets[b] = None;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Second pass: wire loads to reaching stores.
        for (b, in_set) in in_sets.iter().enumerate() {
            let mut mem = in_set.clone();
            for (i, inst) in body.blocks[b].insts.iter().enumerate() {
                let loc = InstLoc {
                    func: body.id,
                    block: BlockId(b as u32),
                    idx: i,
                };
                let Some(n) = self.node(&NodeKind::Inst(loc)) else {
                    continue;
                };
                match inst {
                    Inst::Load { place, .. } => {
                        let cells = pts.cells_of_place(place);
                        // A *strong* reaching store (must-alias) replaces the
                        // ambient value; clobber summaries from calls are MAY
                        // writes, so the ambient param/global definition stays
                        // a possible source alongside them.
                        let mut strong = false;
                        let hits: Vec<NodeId> = mem
                            .iter()
                            .filter(|(c, _)| cells.iter().any(|lc| lc.may_alias(c)))
                            .map(|(c, n)| {
                                if cells.iter().any(|lc| lc.must_alias(c)) {
                                    strong = true;
                                }
                                *n
                            })
                            .collect();
                        for h in hits {
                            self.add_edge(h, n);
                        }
                        if !strong {
                            for c in &cells {
                                match &c.root {
                                    CellRoot::ParamObj(f, i) => {
                                        if let Some(p) = self.node(&NodeKind::Param {
                                            func: *f,
                                            index: *i,
                                        }) {
                                            self.add_edge(p, n);
                                        }
                                    }
                                    CellRoot::Global(g) => {
                                        let gn =
                                            self.intern(NodeKind::GlobalDef { name: g.clone() });
                                        self.add_edge(gn, n);
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    Inst::Store { place, .. } => {
                        let cells = pts.cells_of_place(place);
                        if cells.len() == 1 {
                            let c0 = cells[0].clone();
                            mem.retain(|(c, _)| !c.must_alias(&c0));
                        }
                        for c in cells {
                            mem.push((c, n));
                        }
                        // Stores into globals also feed the GlobalDef node
                        // so other functions observe them.
                        if let PlaceBase::Global(g) = &place.base {
                            let gn = self.intern(NodeKind::GlobalDef { name: g.clone() });
                            self.add_edge(n, gn);
                        }
                    }
                    Inst::Call { args, .. } => {
                        for a in args {
                            for target in pts.of_operand(a) {
                                let mut summary = target;
                                summary.summary = true;
                                mem.push((summary, n));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Reads of globals through plain operands.
        for loc in body.all_locs() {
            let Some(n) = self.node(&NodeKind::Inst(loc)) else {
                continue;
            };
            let ops: Vec<Operand> = if loc.is_terminator() {
                body.block(loc.block)
                    .terminator
                    .operand()
                    .into_iter()
                    .cloned()
                    .collect()
            } else {
                body.inst_at(loc).map(|i| i.uses()).unwrap_or_default()
            };
            for op in ops {
                if let Operand::Global(g) = op {
                    let gn = self.intern(NodeKind::GlobalDef { name: g });
                    self.add_edge(gn, n);
                }
            }
        }
    }

    fn add_control_edges(&mut self, body: &FuncBody) {
        let control = &self.control[&body.id];
        let deps_per_block: Vec<Vec<(NodeId, BranchEdge)>> = (0..body.blocks.len())
            .map(|b| {
                control.deps[b]
                    .iter()
                    .filter_map(|(branch_block, edge)| {
                        let tloc = InstLoc::terminator(body.id, *branch_block);
                        self.node(&NodeKind::Inst(tloc)).map(|n| (n, edge.clone()))
                    })
                    .collect()
            })
            .collect();
        let node_blocks: Vec<(NodeId, usize)> = body
            .all_locs()
            .filter_map(|loc| {
                self.node(&NodeKind::Inst(loc))
                    .map(|n| (n, loc.block.index()))
            })
            .collect();
        match &mut self.store {
            Store::Log {
                ctrl_of,
                ctrl_lists,
                ..
            } => {
                // Each block's dependence list is stored once and shared by
                // id rather than cloned into every node of the block.
                let ids: Vec<u32> = deps_per_block
                    .into_iter()
                    .map(|deps| {
                        if deps.is_empty() {
                            NO_CTRL
                        } else {
                            ctrl_lists.push(deps);
                            (ctrl_lists.len() - 1) as u32
                        }
                    })
                    .collect();
                for (n, b) in node_blocks {
                    ctrl_of[n as usize] = ids[b];
                }
            }
            Store::Csr { .. } => unreachable!("control edges added after finalize"),
        }
    }

    /// Actual→formal and return→receiver edges for in-scope callees.
    fn add_interprocedural_edges(&mut self, cg: &CallGraph) {
        let mut arg_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut const_args: Vec<(InstLoc, usize, i64, FuncId)> = Vec::new();
        let mut ret_edges: Vec<(NodeId, NodeId)> = Vec::new();
        // The call graph groups sites by caller in function order, so
        // walking the scope in ascending order visits exactly the sites a
        // filtered walk over all of `cg.sites()` would, in the same order:
        // the edge log is unchanged and the cost no longer grows with the
        // module around the scope.
        let funcs: Vec<FuncId> = self.scope.iter().copied().collect();
        for site in funcs.into_iter().flat_map(|f| cg.sites_of(f)) {
            let Some(call_node) = self.node(&NodeKind::Inst(site.loc)) else {
                continue;
            };
            let body = self.module.body(site.caller);
            let Some(Inst::Call { args, .. }) = body.inst_at(site.loc) else {
                continue;
            };
            for target in &site.targets {
                let CallTarget::Defined(callee) = target else {
                    continue;
                };
                if !self.scope.contains(callee) {
                    continue;
                }
                for (i, a) in args.iter().enumerate() {
                    let param = NodeKind::Param {
                        func: *callee,
                        index: i,
                    };
                    let Some(pn) = self.node(&param) else {
                        continue;
                    };
                    let sites = self.param_sites.entry(pn).or_default();
                    if !sites.contains(&call_node) {
                        sites.push(call_node);
                    }
                    match a {
                        Operand::Local(l) => {
                            for d in self.defs_of_operand(call_node, *l).to_vec() {
                                arg_edges.push((d, pn));
                            }
                        }
                        Operand::Const(c) => {
                            const_args.push((site.loc, i, *c, *callee));
                        }
                        Operand::Null => {
                            const_args.push((site.loc, i, 0, *callee));
                        }
                        Operand::Global(g) => {
                            let gn = self.intern(NodeKind::GlobalDef { name: g.clone() });
                            arg_edges.push((gn, pn));
                        }
                        _ => {}
                    }
                }
                if let Some(ret) = self.node(&NodeKind::Ret { func: *callee }) {
                    ret_edges.push((ret, call_node));
                }
            }
        }
        for (from, to) in arg_edges {
            self.add_edge(from, to);
        }
        for (loc, index, value, callee) in const_args {
            let cn = self.intern(NodeKind::ConstArg { loc, index, value });
            if let Some(pn) = self.node(&NodeKind::Param {
                func: callee,
                index,
            }) {
                self.add_edge(cn, pn);
            }
        }
        for (from, to) in ret_edges {
            self.add_edge(from, to);
        }
    }
}

/// Reaching local definitions: sorted, duplicate-free `(local, defining
/// node)` pairs.
type Defs = Vec<(LocalId, NodeId)>;

/// The nodes defining `l` in a definition set, ascending.
fn defs_of(defs: &Defs, l: LocalId) -> impl Iterator<Item = NodeId> + '_ {
    let at = defs.partition_point(|&(d, _)| d < l);
    defs[at..]
        .iter()
        .take_while(move |&&(d, _)| d == l)
        .map(|&(_, n)| n)
}

/// Def-use transfer function: the definitions at block end given those at
/// block start and the block's generated definitions (which kill every
/// earlier definition of their locals).
fn block_out(in_defs: &Defs, gen: &Defs) -> Defs {
    let mut out: Defs = in_defs
        .iter()
        .filter(|(l, _)| gen.binary_search_by_key(l, |&(g, _)| g).is_err())
        .copied()
        .chain(gen.iter().copied())
        .collect();
    out.sort_unstable();
    out
}

fn dedup_mem(mem: &mut Vec<(Cell, NodeId)>) {
    mem.sort();
    mem.dedup();
}

/// Convenience: derive the deref-style cells reachable from a node for
/// diagnostics.
pub fn describe_node(pdg: &Pdg<'_>, n: NodeId) -> String {
    match pdg.kind(n) {
        NodeKind::Inst(loc) => {
            let body = pdg.module.body(loc.func);
            let line = body.span_at(*loc).line;
            if loc.is_terminator() {
                format!(
                    "{}:{} {}",
                    body.name,
                    line,
                    body.block(loc.block).terminator
                )
            } else {
                format!(
                    "{}:{} {}",
                    body.name,
                    line,
                    body.inst_at(*loc)
                        .map(|i| i.to_string())
                        .unwrap_or_default()
                )
            }
        }
        NodeKind::Param { func, index } => {
            let body = pdg.module.body(*func);
            format!(
                "{}: param {} ({})",
                body.name,
                index,
                body.locals
                    .get(*index)
                    .map(|l| l.name.as_str())
                    .unwrap_or("?")
            )
        }
        NodeKind::Ret { func } => format!("{}: return value", pdg.module.body(*func).name),
        NodeKind::GlobalDef { name } => format!("global {name}"),
        NodeKind::ConstArg { value, .. } => format!("const arg {value}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::lower;
    use seal_kir::compile;

    fn build_all(src: &str) -> (seal_ir::Module, CallGraph) {
        let m = lower(&compile(src, "t.c").unwrap());
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    fn full_scope(m: &seal_ir::Module) -> BTreeSet<FuncId> {
        (0..m.functions.len() as u32).map(FuncId).collect()
    }

    #[test]
    fn def_use_chain_param_to_return() {
        let (m, cg) = build_all("int f(int x) { int y = x + 1; return y; }");
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.func_id("f").unwrap();
        let param = pdg.node(&NodeKind::Param { func: f, index: 0 }).unwrap();
        // Forward reachability: param -> (+1) -> y -> return -> Ret.
        let mut frontier = vec![param];
        let mut seen = BTreeSet::new();
        while let Some(n) = frontier.pop() {
            if seen.insert(n) {
                frontier.extend(pdg.data_succs(n));
            }
        }
        let ret = pdg.node(&NodeKind::Ret { func: f }).unwrap();
        assert!(seen.contains(&ret));
    }

    #[test]
    fn store_load_memory_edge() {
        let (m, cg) = build_all(
            "struct risc { int *cpu; };\n\
             void *dma_alloc_coherent(unsigned long n);\n\
             int f(struct risc *r) {\n\
               r->cpu = (int *)dma_alloc_coherent(64);\n\
               if (r->cpu == NULL) return -12;\n\
               return 0;\n\
             }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.function("f").unwrap();
        // Find the store node and the load node.
        let mut store_node = None;
        let mut load_node = None;
        for loc in f.inst_locs() {
            match f.inst_at(loc).unwrap() {
                Inst::Store { .. } => store_node = pdg.node(&NodeKind::Inst(loc)),
                Inst::Load { .. } => load_node = pdg.node(&NodeKind::Inst(loc)),
                _ => {}
            }
        }
        let (s, l) = (store_node.unwrap(), load_node.unwrap());
        assert!(pdg.data_succs(s).contains(&l), "store should reach load");
    }

    #[test]
    fn interproc_return_binding() {
        let (m, cg) = build_all(
            "int helper(int x) { return x + 1; }\n\
             int f(int a) { int b = helper(a); return b; }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let h = m.func_id("helper").unwrap();
        let ret_h = pdg.node(&NodeKind::Ret { func: h }).unwrap();
        // Ret(helper) flows into the call node in f.
        assert!(!pdg.data_succs(ret_h).is_empty());
        // And the param of helper has an incoming actual.
        let p = pdg.node(&NodeKind::Param { func: h, index: 0 }).unwrap();
        assert!(!pdg.data_preds(p).is_empty());
    }

    #[test]
    fn const_arg_node_created() {
        let (m, cg) = build_all(
            "int helper(int code) { return code; }\n\
             int f(void) { return helper(-12); }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let const_nodes: Vec<_> = pdg
            .nodes
            .iter()
            .filter(|k| matches!(k, NodeKind::ConstArg { value: -12, .. }))
            .collect();
        assert_eq!(const_nodes.len(), 1);
    }

    #[test]
    fn use_kind_api_arg() {
        let (m, cg) = build_all(
            "void kfree(void *p);\n\
             void f(void *p) { kfree(p); }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.func_id("f").unwrap();
        let param = pdg.node(&NodeKind::Param { func: f, index: 0 }).unwrap();
        let succs = pdg.data_succs(param);
        assert_eq!(succs.len(), 1);
        assert_eq!(
            pdg.use_kind(param, succs[0]),
            UseKind::ApiArg {
                api: "kfree".into(),
                index: 0
            }
        );
    }

    #[test]
    fn use_kind_deref_and_div() {
        let (m, cg) = build_all("int f(int *p, int d) { return *p / d; }");
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.func_id("f").unwrap();
        let p = pdg.node(&NodeKind::Param { func: f, index: 0 }).unwrap();
        let d = pdg.node(&NodeKind::Param { func: f, index: 1 }).unwrap();
        let deref_use = pdg
            .data_succs(p)
            .iter()
            .map(|&u| pdg.use_kind(p, u))
            .find(|k| *k == UseKind::Deref);
        assert!(deref_use.is_some());
        let div_use = pdg
            .data_succs(d)
            .iter()
            .map(|&u| pdg.use_kind(d, u))
            .find(|k| *k == UseKind::Div);
        assert!(div_use.is_some());
    }

    #[test]
    fn control_dependence_attached() {
        let (m, cg) = build_all(
            "int g(void);\nint f(int x) { int r = 0; if (x > 0) { r = g(); } return r; }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        // Find the call node; it must be control dependent on the branch.
        let f = m.function("f").unwrap();
        let call_loc = f
            .inst_locs()
            .find(|&loc| matches!(f.inst_at(loc), Some(Inst::Call { .. })))
            .unwrap();
        let cn = pdg.node(&NodeKind::Inst(call_loc)).unwrap();
        assert_eq!(pdg.ctrl_deps(cn).len(), 1);
        assert!(matches!(pdg.ctrl_deps(cn)[0].1, BranchEdge::True));

        // Every statement node serves exactly its block's dependence list
        // (branch terminators in `ControlFacts` order), whether the block
        // has no dependences, one, or several shared with sibling blocks.
        let (m2, cg2) = build_all(
            "int g(void);\nint h(int *p);\n\
             int f(int x, int *p) {\n\
               int r = 0;\n\
               if (x > 0) { r = g(); if (p != NULL) { r = h(p); } }\n\
               while (r < 10) { r = r + x; }\n\
               return r;\n\
             }",
        );
        let pdg2 = Pdg::build(&m2, &cg2, &full_scope(&m2));
        for (m, pdg) in [(&m, &pdg), (&m2, &pdg2)] {
            for body in &m.functions {
                let control = &pdg.control[&body.id];
                for loc in body.all_locs() {
                    let n = pdg.node(&NodeKind::Inst(loc)).unwrap();
                    let expected: Vec<(NodeId, BranchEdge)> = control.deps[loc.block.index()]
                        .iter()
                        .map(|(b, edge)| {
                            let t = InstLoc::terminator(body.id, *b);
                            (pdg.node(&NodeKind::Inst(t)).unwrap(), edge.clone())
                        })
                        .collect();
                    assert_eq!(pdg.ctrl_deps(n), &expected[..], "ctrl of {loc:?}");
                }
            }
        }
    }

    #[test]
    fn omega_orders_statements() {
        let (m, cg) = build_all(
            "void use_dev(int *d);\nvoid free_dev(int *d);\n\
             void f(int *d) { use_dev(d); free_dev(d); }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.function("f").unwrap();
        let locs: Vec<_> = f
            .inst_locs()
            .filter(|&loc| matches!(f.inst_at(loc), Some(Inst::Call { .. })))
            .collect();
        let n0 = pdg.node(&NodeKind::Inst(locs[0])).unwrap();
        let n1 = pdg.node(&NodeKind::Inst(locs[1])).unwrap();
        assert!(pdg.omega(n0).unwrap() < pdg.omega(n1).unwrap());
    }

    #[test]
    fn global_def_node_links_reads_and_writes() {
        let (m, cg) = build_all(
            "int counter;\n\
             void bump(void) { counter = counter + 1; }\n\
             int read_it(void) { return counter; }",
        );
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let gn = pdg
            .node(&NodeKind::GlobalDef {
                name: "counter".into(),
            })
            .unwrap();
        assert!(!pdg.data_succs(gn).is_empty());
        assert!(!pdg.data_preds(gn).is_empty());
    }

    #[test]
    fn func_ret_use_kind() {
        let (m, cg) = build_all("int f(int x) { return x; }");
        let pdg = Pdg::build(&m, &cg, &full_scope(&m));
        let f = m.func_id("f").unwrap();
        let p = pdg.node(&NodeKind::Param { func: f, index: 0 }).unwrap();
        let uses: Vec<_> = pdg
            .data_succs(p)
            .iter()
            .map(|&u| pdg.use_kind(p, u))
            .collect();
        assert!(uses.contains(&UseKind::FuncRet { func: "f".into() }));
    }

    #[test]
    fn one_function_scope_is_unchanged_by_unrelated_functions() {
        let base = "int counter;\n\
             void *kmalloc(unsigned long n);\n\
             void kfree(void *p);\n\
             int helper(int x) { return x + 1; }\n\
             int f(int *p, int d) {\n\
               int *q = (int *)kmalloc(8);\n\
               if (q == NULL) return -12;\n\
               counter = helper(d);\n\
               if (d > 0) { kfree(q); }\n\
               return *p / d;\n\
             }\n";
        // Appended functions keep every earlier id; they call `f`, the
        // same APIs, and each other, so the module's call graph grows on
        // every side of the scope.
        let grown = format!(
            "{base}\
             int g(int *p, int d) {{ kfree(kmalloc(4)); return f(p, d) + helper(d); }}\n\
             int h(int *p) {{ if (g(p, 1) > 0) return g(p, 2); return f(p, 3); }}\n"
        );
        let (m, cg) = build_all(base);
        let (m2, cg2) = build_all(&grown);
        let scope: BTreeSet<FuncId> = [m.func_id("f").unwrap()].into_iter().collect();
        assert_eq!(m2.func_id("f"), m.func_id("f"));
        assert!(cg2.sites().len() > cg.sites().len());
        let a = Pdg::build(&m, &cg, &scope);
        let b = Pdg::build(&m2, &cg2, &scope);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edge_count(), b.edge_count());
        for n in 0..a.len() as NodeId {
            assert_eq!(a.data_succs(n), b.data_succs(n), "succs of {n}");
            assert_eq!(a.data_preds(n), b.data_preds(n), "preds of {n}");
            assert_eq!(a.ctrl_deps(n), b.ctrl_deps(n), "ctrl of {n}");
        }
    }

    #[test]
    fn scoped_build_excludes_out_of_scope() {
        let (m, cg) = build_all(
            "int helper(int x) { return x; }\n\
             int f(int a) { return helper(a); }",
        );
        let scope: BTreeSet<FuncId> = [m.func_id("f").unwrap()].into_iter().collect();
        let pdg = Pdg::build(&m, &cg, &scope);
        let h = m.func_id("helper").unwrap();
        assert!(pdg.node(&NodeKind::Ret { func: h }).is_none());
    }
}
