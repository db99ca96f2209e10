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

use crate::arena::{scatter_rows, Csr, EdgeArena};
use crate::cell::{Cell, CellRoot};
use crate::domtree::{BranchEdge, ControlFacts};
use crate::points_to::PointsTo;
use seal_ir::body::{FuncBody, Predecessors};
use seal_ir::callgraph::{CallGraph, CallTarget};
use seal_ir::ids::{BlockId, FuncId, InstLoc, LocalId};
use seal_ir::module::Module;
use seal_ir::tac::{Callee, Inst, Operand, Place, PlaceBase, Projection, Rvalue, Terminator};
use seal_runtime::FxHashMap;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

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

/// Sentinel in `ctrl_of` for nodes with no control dependences, and in
/// [`FuncNodes::ret`] for functions without a `Ret` node.
const NONE: u32 = u32::MAX;

/// Edge storage for a [`Pdg`].
///
/// Edges accumulate in a single [`EdgeArena`] log during construction
/// (`Log`) and finalize once into two compressed-sparse-row tables (`Csr`)
/// — a handful of large allocations, freed wholesale with the PDG, instead
/// of one vector per node per direction (thousands of small allocations per
/// build, which collapse multi-worker scaling under allocator pressure).
/// Each row keeps edge insertion order, first occurrence winning. The
/// call sites binding each `Param` node take the same path: logged as
/// `(param, call)` pairs, then scattered into rows.
enum Store {
    Log {
        edges: EdgeArena,
        param_sites: Vec<(NodeId, NodeId)>,
    },
    Csr {
        succ: Csr,
        pred: Csr,
        param_sites: Csr,
    },
}

impl Store {
    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        match self {
            Store::Log { edges, .. } => {
                edges.push(from, to);
            }
            Store::Csr { .. } => unreachable!("edge added after finalize"),
        }
    }
}

/// Where one scope function's nodes sit in the dense numbering: parameters
/// from `first`, then every location of [`FuncBody::all_locs`] (each
/// block's instructions, then its terminator), then the `Ret` node when the
/// function returns a value.
#[derive(Debug, Clone, Copy)]
struct FuncNodes {
    id: FuncId,
    first: NodeId,
    params: u32,
    /// This function's `blocks + 1` entries in [`Pdg::block_starts`] begin
    /// here. Entry `b` is block `b`'s first location relative to the first
    /// location node; entry `blocks` is the location count.
    starts: u32,
    blocks: u32,
    /// The `Ret` node, or [`NONE`].
    ret: NodeId,
}

impl FuncNodes {
    /// Node of the first location.
    fn locs(&self) -> NodeId {
        self.first + self.params
    }

    /// Block `b`'s first location node and its terminator node.
    fn block(&self, block_starts: &[u32], b: usize) -> Option<(NodeId, NodeId)> {
        if b >= self.blocks as usize {
            return None;
        }
        let at = self.starts as usize + b;
        Some((
            self.locs() + block_starts[at],
            self.locs() + block_starts[at + 1] - 1,
        ))
    }

    fn param(&self, index: usize) -> Option<NodeId> {
        (index < self.params as usize).then(|| self.first + index as u32)
    }
}

/// The defining nodes each consumer node observes for each local it reads,
/// in rows: `rows[n]` opens node `n`'s `(local, defs range)` entries, which
/// end where the next row opens (or at the end, for the last row). The
/// ranges index one flat definition list. Rows open in ascending node
/// order; nodes past the last opened row read nothing.
#[derive(Default)]
struct OperandDefs {
    rows: Vec<u32>,
    entries: Vec<(LocalId, u32, u32)>,
    defs: Vec<NodeId>,
}

impl OperandDefs {
    /// Room for `nodes` rows, and about one entry and one definition per
    /// row: most locations read one or two locals with one definition.
    fn with_capacity(nodes: usize) -> Self {
        OperandDefs {
            rows: Vec::with_capacity(nodes),
            entries: Vec::with_capacity(nodes),
            defs: Vec::with_capacity(nodes),
        }
    }

    /// Opens node `n`'s row; the rows of nodes skipped since the last one
    /// opened stay empty.
    fn open(&mut self, n: NodeId) {
        while self.rows.len() <= n as usize {
            self.rows.push(self.entries.len() as u32);
        }
    }

    fn row(&self, n: NodeId) -> &[(LocalId, u32, u32)] {
        let Some(&lo) = self.rows.get(n as usize) else {
            return &[];
        };
        let hi = self
            .rows
            .get(n as usize + 1)
            .map_or(self.entries.len(), |&hi| hi as usize);
        &self.entries[lo as usize..hi]
    }

    /// Records the definitions of `l` seen by the node of the open row,
    /// unless the row already has them (a local read twice by one node).
    /// Returns whether it recorded them.
    fn record(&mut self, l: LocalId, defs: impl Iterator<Item = NodeId>) -> bool {
        let open = *self.rows.last().expect("a row is open") as usize;
        if self.entries[open..].iter().any(|e| e.0 == l) {
            return false;
        }
        let start = self.defs.len() as u32;
        self.defs.extend(defs);
        self.entries.push((l, start, self.defs.len() as u32));
        true
    }

    /// The definitions of the entry recorded last.
    fn last(&self) -> &[NodeId] {
        let &(_, lo, hi) = self.entries.last().expect("an entry was recorded");
        &self.defs[lo as usize..hi as usize]
    }

    /// The definitions recorded for `(n, l)`.
    fn get(&self, n: NodeId, l: LocalId) -> &[NodeId] {
        self.row(n)
            .iter()
            .find(|e| e.0 == l)
            .map_or(&[], |&(_, lo, hi)| &self.defs[lo as usize..hi as usize])
    }
}

/// The program dependence graph for a scope of functions.
pub struct Pdg<'m> {
    /// Underlying module.
    pub module: &'m Module,
    /// Functions included in this demand-built PDG.
    pub scope: BTreeSet<FuncId>,
    /// Node table.
    pub nodes: Vec<NodeKind>,
    /// Node numbering of each scope function, in scope (ascending id)
    /// order: [`Pdg::node`] answers `Inst`, `Param` and `Ret` kinds from
    /// here, and the points-to and control facts sit at the same positions.
    funcs: Vec<FuncNodes>,
    /// Per-block location offsets of every scope function (see
    /// [`FuncNodes::starts`]).
    block_starts: Vec<u32>,
    /// `ConstArg` node ids by call site, argument index and value. Keyed
    /// on ids and literals only and point-queried, never iterated, so it
    /// uses the cheap [`FxHashMap`]: its hash order cannot reach output,
    /// and no key is text from the analyzed source.
    const_args: FxHashMap<(InstLoc, usize, i64), NodeId>,
    /// `GlobalDef` node ids by global name. Names come from the analyzed
    /// source, so this map keeps the collision-resistant default hasher.
    global_defs: HashMap<String, NodeId>,
    store: Store,
    omega: Vec<Option<Omega>>,
    /// Each node's control-dependence list id, or [`NONE`]. The nodes of
    /// one block share its list, stored once: list `i` is
    /// `ctrl_lists[ctrl_offsets[i]..ctrl_offsets[i + 1]]`.
    ctrl_of: Vec<u32>,
    ctrl_offsets: Vec<u32>,
    ctrl_lists: Vec<(NodeId, BranchEdge)>,
    /// Defining nodes for each (consumer node, local) pair, for condition
    /// symbolization.
    op_defs: OperandDefs,
    /// Per-function points-to facts, by scope position.
    pts: Vec<PointsTo>,
    /// Per-function control facts, by scope position.
    control: Vec<ControlFacts>,
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

thread_local! {
    /// Each thread's construction buffers, kept between builds: a detection
    /// worker builds thousands of small PDGs, and each build starts with
    /// buffers an earlier one already grew.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Working buffers of the per-function construction passes. Every pass
/// clears what it uses first, so one scratch serves every function of
/// every build on a thread, and the passes allocate only while the largest
/// function yet grows them.
#[derive(Default)]
struct Scratch {
    cfg: crate::domtree::CfgScratch,
    preds: Predecessors,
    // Reaching definitions. Definition sites are numbered in node order
    // (parameters, then defining instructions), so a set of sites is a
    // bitset of one bit per site, and iterating it ascends by node.
    site_node: Vec<NodeId>,
    site_local: Vec<LocalId>,
    /// `local_sites[local_off[l]..local_off[l + 1]]`: the sites defining
    /// local `l`, ascending.
    local_off: Vec<u32>,
    local_sites: Vec<u32>,
    /// Per block, one bitset each: generated sites (the last definition of
    /// each local the block assigns), killed sites (every definition of
    /// those locals), and the sites reaching block entry.
    gen: Vec<u64>,
    kill: Vec<u64>,
    reach: Vec<u64>,
    cur: Vec<u64>,
    // Memory dependence. Every cell a store writes, a call may clobber or a
    // load reads is computed once per function into `cells`; memory states
    // hold `(cell index, writing node)` pairs, ordered and compared by the
    // cell's value.
    cells: Vec<Cell>,
    /// One effect per load, store and call, in node order; `block_effects`
    /// indexes them per block like `local_off`.
    effects: Vec<Effect>,
    block_effects: Vec<u32>,
    mem_in: Vec<Vec<(u32, NodeId)>>,
    mem_out: Vec<Vec<(u32, NodeId)>>,
    out_ok: Vec<bool>,
    mem_cur: Vec<(u32, NodeId)>,
}

/// A memory effect of one instruction: its node and its cells,
/// `cells[lo..hi]` of [`Scratch::cells`].
#[derive(Clone, Copy)]
struct Effect {
    node: NodeId,
    kind: EffectKind,
    lo: u32,
    hi: u32,
}

#[derive(Clone, Copy)]
enum EffectKind {
    Load,
    Store,
    /// A call may write through its pointer arguments: summary cells.
    Call,
}

/// Sorts a memory state by (cell value, node) and drops duplicates.
fn sort_mem(mem: &mut Vec<(u32, NodeId)>, cells: &[Cell]) {
    mem.sort_unstable_by(|a, b| {
        cells[a.0 as usize]
            .cmp(&cells[b.0 as usize])
            .then(a.1.cmp(&b.1))
    });
    mem.dedup_by(|a, b| a.1 == b.1 && cells[a.0 as usize] == cells[b.0 as usize]);
}

fn same_mem(a: &[(u32, NodeId)], b: &[(u32, NodeId)], cells: &[Cell]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.1 == y.1 && cells[x.0 as usize] == cells[y.0 as usize])
}

/// Applies one block's stores and call clobbers to a memory state.
fn apply_writes(mem: &mut Vec<(u32, NodeId)>, effects: &[Effect], cells: &[Cell]) {
    for e in effects {
        match e.kind {
            EffectKind::Load => {}
            EffectKind::Store => {
                // Strong update only when the store names a single
                // must-aliasable cell.
                if e.hi - e.lo == 1 {
                    let c0 = &cells[e.lo as usize];
                    mem.retain(|(c, _)| !cells[*c as usize].must_alias(c0));
                }
                mem.extend((e.lo..e.hi).map(|c| (c, e.node)));
            }
            EffectKind::Call => mem.extend((e.lo..e.hi).map(|c| (c, e.node))),
        }
    }
}

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
    ///
    /// Every scope function's nodes are numbered first, consecutively and
    /// in scope order; `GlobalDef` nodes follow as the memory passes meet
    /// them, then `ConstArg` nodes.
    pub fn build(module: &'m Module, cg: &CallGraph, scope: &BTreeSet<FuncId>) -> Self {
        let _span = seal_obs::span!("pdg.build", funcs = scope.len());
        let (mut func_nodes, mut block_rows) = (0, 0);
        for &fid in scope {
            let body = module.body(fid);
            let locs: usize = body.blocks.iter().map(|b| b.insts.len() + 1).sum();
            func_nodes += body.param_count + locs + 1;
            block_rows += body.blocks.len() + 1;
        }
        let mut pdg = Pdg {
            module,
            scope: scope.clone(),
            nodes: Vec::with_capacity(func_nodes),
            funcs: Vec::with_capacity(scope.len()),
            block_starts: Vec::with_capacity(block_rows),
            const_args: FxHashMap::default(),
            global_defs: HashMap::new(),
            store: Store::Log {
                edges: EdgeArena::with_capacity(func_nodes),
                param_sites: Vec::new(),
            },
            omega: Vec::with_capacity(func_nodes),
            ctrl_of: Vec::with_capacity(func_nodes),
            ctrl_offsets: vec![0],
            ctrl_lists: Vec::new(),
            op_defs: OperandDefs::with_capacity(func_nodes),
            pts: Vec::with_capacity(scope.len()),
            control: Vec::with_capacity(scope.len()),
        };
        SCRATCH.with(|sc| pdg.add_function_facts(scope, &mut sc.borrow_mut()));
        pdg.add_interprocedural_edges(cg);
        pdg.finalize_store();
        seal_obs::metrics::counter_add("pdg.builds", 1);
        seal_obs::metrics::counter_add("pdg.nodes", pdg.nodes.len() as u64);
        seal_obs::metrics::counter_add("pdg.edges", pdg.edge_count() as u64);
        seal_obs::metrics::hist_observe("pdg.nodes_per_build", pdg.nodes.len() as u64);
        pdg
    }

    /// Numbers every scope function's nodes, then adds each function's
    /// def-use, memory and control edges.
    fn add_function_facts(&mut self, scope: &BTreeSet<FuncId>, sc: &mut Scratch) {
        let module = self.module;
        for &fid in scope {
            let body = module.body(fid);
            self.pts.push(PointsTo::compute(body));
            let control = ControlFacts::compute_in(body, &mut sc.cfg);
            self.add_function_nodes(body, &control.order);
            self.control.push(control);
        }
        // Moved out so the memory pass can read a function's facts while
        // it adds nodes and edges.
        let pts = std::mem::take(&mut self.pts);
        for (pos, (&fid, pts)) in scope.iter().zip(&pts).enumerate() {
            let body = module.body(fid);
            sc.preds.fill(body);
            self.add_local_def_use(pos, body, sc);
            self.add_memory_edges(pos, body, pts, sc);
            self.add_control_edges(pos, body);
        }
        self.pts = pts;
    }

    /// Scatters the edge and call-site logs into CSR form; construction is
    /// over once this runs (`add_edge` would panic).
    fn finalize_store(&mut self) {
        if let Store::Log { edges, param_sites } = &mut self.store {
            let nodes = self.nodes.len();
            let (succ, pred) = std::mem::take(edges).finalize(nodes);
            let param_sites = Csr::scatter(nodes, param_sites.iter().copied());
            self.store = Store::Csr {
                succ,
                pred,
                param_sites,
            };
        }
    }

    // ------------------------------------------------------------ accessors

    /// Scope position of a function, when it is in scope.
    fn position(&self, f: FuncId) -> Option<usize> {
        self.funcs.binary_search_by_key(&f, |fs| fs.id).ok()
    }

    fn func_nodes(&self, f: FuncId) -> Option<&FuncNodes> {
        self.position(f).map(|pos| &self.funcs[pos])
    }

    /// Node id for a kind, if present.
    pub fn node(&self, kind: &NodeKind) -> Option<NodeId> {
        match kind {
            NodeKind::Inst(loc) => {
                let f = self.func_nodes(loc.func)?;
                let (lo, term) = f.block(&self.block_starts, loc.block.index())?;
                if loc.is_terminator() {
                    Some(term)
                } else {
                    (loc.idx < (term - lo) as usize).then(|| lo + loc.idx as u32)
                }
            }
            NodeKind::Param { func, index } => self.func_nodes(*func)?.param(*index),
            NodeKind::Ret { func } => match self.func_nodes(*func)?.ret {
                NONE => None,
                ret => Some(ret),
            },
            NodeKind::GlobalDef { name } => self.global_defs.get(name).copied(),
            NodeKind::ConstArg { loc, index, value } => {
                self.const_args.get(&(*loc, *index, *value)).copied()
            }
        }
    }

    /// Points-to facts of a scope function.
    pub fn points_to(&self, f: FuncId) -> Option<&PointsTo> {
        self.position(f).map(|pos| &self.pts[pos])
    }

    /// Control facts of a scope function.
    pub fn control_facts(&self, f: FuncId) -> Option<&ControlFacts> {
        self.position(f).map(|pos| &self.control[pos])
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
        match self.ctrl_of[n as usize] {
            NONE => &[],
            id => {
                let id = id as usize;
                &self.ctrl_lists[self.ctrl_offsets[id] as usize..self.ctrl_offsets[id + 1] as usize]
            }
        }
    }

    /// Identity of a node's control-dependence list: the nodes of one
    /// block share one list and so one id. `None` without dependences.
    pub(crate) fn ctrl_list_id(&self, n: NodeId) -> Option<u32> {
        match self.ctrl_of[n as usize] {
            NONE => None,
            id => Some(id),
        }
    }

    /// Total edge count (`E_d` + `E_c`), for sizing/metrics. Control
    /// dependences count per *node*: each block's list is stored once, but
    /// stands for one edge set per referencing node.
    pub fn edge_count(&self) -> usize {
        let data = match &self.store {
            Store::Log { edges, .. } => edges.len(),
            Store::Csr { succ, .. } => succ.entries(),
        };
        let ctrl: usize = (0..self.nodes.len() as NodeId)
            .map(|n| self.ctrl_deps(n).len())
            .sum();
        data + ctrl
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
        match &self.store {
            Store::Csr { param_sites, .. } => param_sites.row(param),
            Store::Log { .. } => unreachable!("call sites read before finalize"),
        }
    }

    /// The defining nodes of `local` as observed by consumer node `n`.
    pub fn defs_of_operand(&self, n: NodeId, local: LocalId) -> &[NodeId] {
        self.op_defs.get(n, local)
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

    /// Appends a node.
    fn push_node(&mut self, kind: NodeKind, omega: Option<Omega>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(kind);
        self.omega.push(omega);
        self.ctrl_of.push(NONE);
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.store.add_edge(from, to);
    }

    /// The `GlobalDef` node of a global, added on first use.
    fn global_def(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.global_defs.get(name) {
            return id;
        }
        let kind = NodeKind::GlobalDef {
            name: name.to_owned(),
        };
        let id = self.push_node(kind, None);
        self.global_defs.insert(name.to_owned(), id);
        id
    }

    /// Numbers a function's nodes; `block_order` is its blocks' reverse
    /// post-order index (the `Ω` block stamp).
    fn add_function_nodes(&mut self, body: &FuncBody, block_order: &[u32]) {
        let func = body.id;
        let first = self.nodes.len() as NodeId;
        for index in 0..body.param_count {
            self.push_node(NodeKind::Param { func, index }, None);
        }
        let starts = self.block_starts.len() as u32;
        let mut at = 0;
        let mut has_ret_value = false;
        for (b, block) in body.blocks.iter().enumerate() {
            self.block_starts.push(at);
            let block_id = BlockId(b as u32);
            let stamp = |idx| {
                Some(Omega {
                    func,
                    block: block_order[b],
                    idx,
                })
            };
            for idx in 0..block.insts.len() {
                let loc = InstLoc {
                    func,
                    block: block_id,
                    idx,
                };
                self.push_node(NodeKind::Inst(loc), stamp(idx as u32));
            }
            // Terminators sort last in their block.
            let loc = InstLoc::terminator(func, block_id);
            self.push_node(NodeKind::Inst(loc), stamp(u32::MAX));
            at += block.insts.len() as u32 + 1;
            has_ret_value |= matches!(block.terminator, Terminator::Return(Some(_)));
        }
        self.block_starts.push(at);
        let ret = match has_ret_value {
            true => self.push_node(NodeKind::Ret { func }, None),
            false => NONE,
        };
        self.funcs.push(FuncNodes {
            id: func,
            first,
            params: body.param_count as u32,
            starts,
            blocks: body.blocks.len() as u32,
            ret,
        });
    }

    /// Reaching-definitions def-use for locals, plus `op_defs` rows.
    ///
    /// Definition sites — the parameters, then every defining instruction
    /// — are numbered in node order, so each block's reaching set is a
    /// bitset, and the definitions of a local come out ascending by node.
    /// A block kills every site of each local it assigns and generates the
    /// last of them, so its transfer function is pure in its entry set.
    fn add_local_def_use(&mut self, pos: usize, body: &FuncBody, sc: &mut Scratch) {
        let f = self.funcs[pos];
        let nblocks = body.blocks.len();
        sc.site_node.clear();
        sc.site_local.clear();
        for i in 0..body.param_count {
            sc.site_node.push(f.first + i as u32);
            sc.site_local.push(LocalId(i as u32));
        }
        let mut n = f.locs();
        for block in &body.blocks {
            for inst in &block.insts {
                if let Some(d) = inst.def() {
                    sc.site_node.push(n);
                    sc.site_local.push(d);
                }
                n += 1;
            }
            n += 1;
        }
        // Group the sites by local.
        let nlocals = sc.site_local.iter().map(|l| l.index() + 1).max();
        let by_local = sc.site_local.iter().enumerate();
        let by_local = by_local.map(|(s, l)| (l.index(), s as u32));
        scatter_rows(
            nlocals.unwrap_or(0),
            by_local,
            0,
            &mut sc.local_off,
            &mut sc.local_sites,
        );

        let words = sc.site_node.len().div_ceil(64);
        for set in [&mut sc.gen, &mut sc.kill, &mut sc.reach] {
            set.clear();
            set.resize(nblocks * words, 0);
        }
        let mut site = body.param_count;
        for (b, block) in body.blocks.iter().enumerate() {
            let row = b * words;
            for inst in &block.insts {
                if let Some(d) = inst.def() {
                    for &s in sites(&sc.local_off, &sc.local_sites, d) {
                        unset(&mut sc.gen[row..], s as usize);
                        set(&mut sc.kill[row..], s as usize);
                    }
                    set(&mut sc.gen[row..], site);
                    site += 1;
                }
            }
        }
        // Entry: parameters defined by Param nodes.
        if nblocks > 0 {
            for i in 0..body.param_count {
                set(&mut sc.reach, i);
            }
        }
        // Iterate to fixpoint (monotone union + strong per-local kill).
        // The entry block keeps its parameter set.
        loop {
            let mut changed = false;
            for b in 1..nblocks {
                sc.cur.clear();
                sc.cur
                    .extend_from_slice(&sc.reach[b * words..(b + 1) * words]);
                for p in sc.preds.of(BlockId(b as u32)) {
                    let p = p.index() * words;
                    for w in 0..words {
                        sc.cur[w] |= sc.gen[p + w] | (sc.reach[p + w] & !sc.kill[p + w]);
                    }
                }
                if sc.cur[..] != sc.reach[b * words..(b + 1) * words] {
                    sc.reach[b * words..(b + 1) * words].copy_from_slice(&sc.cur);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Walk blocks, recording uses and updating defs.
        let mut n = f.locs();
        let mut site = body.param_count;
        for (b, block) in body.blocks.iter().enumerate() {
            sc.cur.clear();
            sc.cur
                .extend_from_slice(&sc.reach[b * words..(b + 1) * words]);
            for inst in &block.insts {
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
                            .is_some_and(|id| self.position(id).is_some())
                );
                self.op_defs.open(n);
                let (op_defs, store) = (&mut self.op_defs, &mut self.store);
                inst.for_each_use(|op| {
                    if let Some(l) = op.as_local() {
                        if op_defs.record(l, reaching(sc, l)) && !precise_callee {
                            for &d in op_defs.last() {
                                store.add_edge(d, n);
                            }
                        }
                    }
                });
                if let Some(d) = inst.def() {
                    for &s in sites(&sc.local_off, &sc.local_sites, d) {
                        unset(&mut sc.cur, s as usize);
                    }
                    set(&mut sc.cur, site);
                    site += 1;
                }
                n += 1;
            }
            // Terminator uses.
            self.op_defs.open(n);
            if let Some(l) = block.terminator.operand().and_then(Operand::as_local) {
                if self.op_defs.record(l, reaching(sc, l)) {
                    for &d in self.op_defs.last() {
                        self.store.add_edge(d, n);
                    }
                }
            }
            // Return value aggregation.
            if let Terminator::Return(Some(_)) = block.terminator {
                if f.ret != NONE {
                    self.add_edge(n, f.ret);
                }
            }
            n += 1;
        }
    }

    /// Store→load memory dependence via reaching stores over cells.
    fn add_memory_edges(&mut self, pos: usize, body: &FuncBody, pts: &PointsTo, sc: &mut Scratch) {
        let f = self.funcs[pos];
        let nblocks = body.blocks.len();
        sc.cells.clear();
        sc.effects.clear();
        sc.block_effects.clear();
        let mut n = f.locs();
        for block in &body.blocks {
            sc.block_effects.push(sc.effects.len() as u32);
            for inst in &block.insts {
                let node = n;
                n += 1;
                let lo = sc.cells.len() as u32;
                let kind = match inst {
                    Inst::Load { place, .. } => {
                        sc.cells.extend(pts.cells_of_place(place));
                        EffectKind::Load
                    }
                    Inst::Store { place, .. } => {
                        sc.cells.extend(pts.cells_of_place(place));
                        EffectKind::Store
                    }
                    Inst::Call { args, .. } => {
                        for a in args {
                            for mut summary in pts.of_operand(a) {
                                summary.summary = true;
                                sc.cells.push(summary);
                            }
                        }
                        EffectKind::Call
                    }
                    _ => continue,
                };
                let hi = sc.cells.len() as u32;
                sc.effects.push(Effect { node, kind, lo, hi });
            }
            n += 1;
        }
        sc.block_effects.push(sc.effects.len() as u32);

        if sc.mem_in.len() < nblocks {
            sc.mem_in.resize_with(nblocks, Vec::new);
            sc.mem_out.resize_with(nblocks, Vec::new);
        }
        for b in 0..nblocks {
            sc.mem_in[b].clear();
        }
        sc.out_ok.clear();
        sc.out_ok.resize(nblocks, false);
        // Each block's out-state is kept until its in-state changes.
        loop {
            let mut changed = false;
            for b in 0..nblocks {
                sc.mem_cur.clear();
                for p in sc.preds.of(BlockId(b as u32)) {
                    let p = p.index();
                    if !sc.out_ok[p] {
                        let out = &mut sc.mem_out[p];
                        out.clear();
                        out.extend_from_slice(&sc.mem_in[p]);
                        let effects = &sc.effects
                            [sc.block_effects[p] as usize..sc.block_effects[p + 1] as usize];
                        apply_writes(out, effects, &sc.cells);
                        sort_mem(out, &sc.cells);
                        sc.out_ok[p] = true;
                    }
                    sc.mem_cur.extend_from_slice(&sc.mem_out[p]);
                }
                sort_mem(&mut sc.mem_cur, &sc.cells);
                if !same_mem(&sc.mem_cur, &sc.mem_in[b], &sc.cells) {
                    std::mem::swap(&mut sc.mem_in[b], &mut sc.mem_cur);
                    sc.out_ok[b] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Second pass: wire loads to reaching stores.
        for (b, block) in body.blocks.iter().enumerate() {
            let (first, _) = f
                .block(&self.block_starts, b)
                .expect("block of the function");
            sc.mem_cur.clear();
            sc.mem_cur.extend_from_slice(&sc.mem_in[b]);
            for k in sc.block_effects[b]..sc.block_effects[b + 1] {
                let e = sc.effects[k as usize];
                match e.kind {
                    EffectKind::Load => {
                        let cells = &sc.cells[e.lo as usize..e.hi as usize];
                        // A *strong* reaching store (must-alias) replaces the
                        // ambient value; clobber summaries from calls are MAY
                        // writes, so the ambient param/global definition stays
                        // a possible source alongside them.
                        let mut strong = false;
                        for &(c, m) in &sc.mem_cur {
                            let c = &sc.cells[c as usize];
                            if cells.iter().any(|lc| lc.may_alias(c)) {
                                strong |= cells.iter().any(|lc| lc.must_alias(c));
                                self.store.add_edge(m, e.node);
                            }
                        }
                        if !strong {
                            for c in cells {
                                match &c.root {
                                    CellRoot::ParamObj(func, i) => {
                                        let param =
                                            self.func_nodes(*func).and_then(|fs| fs.param(*i));
                                        if let Some(p) = param {
                                            self.add_edge(p, e.node);
                                        }
                                    }
                                    CellRoot::Global(g) => {
                                        let gn = self.global_def(g);
                                        self.add_edge(gn, e.node);
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    EffectKind::Store => {
                        apply_writes(&mut sc.mem_cur, &[e], &sc.cells);
                        // Stores into globals also feed the GlobalDef node
                        // so other functions observe them.
                        if let Inst::Store { place, .. } = &block.insts[(e.node - first) as usize] {
                            if let PlaceBase::Global(g) = &place.base {
                                let gn = self.global_def(g);
                                self.add_edge(e.node, gn);
                            }
                        }
                    }
                    EffectKind::Call => apply_writes(&mut sc.mem_cur, &[e], &sc.cells),
                }
            }
        }

        // Reads of globals through plain operands.
        let mut n = f.locs();
        for block in &body.blocks {
            for inst in &block.insts {
                inst.for_each_use(|op| {
                    if let Operand::Global(g) = op {
                        let gn = self.global_def(g);
                        self.add_edge(gn, n);
                    }
                });
                n += 1;
            }
            if let Some(Operand::Global(g)) = block.terminator.operand() {
                let gn = self.global_def(g);
                self.add_edge(gn, n);
            }
            n += 1;
        }
    }

    fn add_control_edges(&mut self, pos: usize, body: &FuncBody) {
        let f = self.funcs[pos];
        let control = &self.control[pos];
        // Each block's dependence list is stored once and shared by id
        // rather than cloned into every node of the block.
        for b in 0..body.blocks.len() {
            let deps = control.deps(b);
            if deps.is_empty() {
                continue;
            }
            for (branch, edge) in deps {
                let (_, term) = f
                    .block(&self.block_starts, branch.index())
                    .expect("branch block of the function");
                self.ctrl_lists.push((term, edge.clone()));
            }
            let id = self.ctrl_offsets.len() as u32 - 1;
            self.ctrl_offsets.push(self.ctrl_lists.len() as u32);
            let (lo, term) = f
                .block(&self.block_starts, b)
                .expect("block of the function");
            self.ctrl_of[lo as usize..=term as usize].fill(id);
        }
    }

    /// Actual→formal and return→receiver edges for in-scope callees.
    fn add_interprocedural_edges(&mut self, cg: &CallGraph) {
        let mut arg_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut const_args: Vec<(InstLoc, usize, i64, NodeId)> = Vec::new();
        let mut ret_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut param_sites: Vec<(NodeId, NodeId)> = Vec::new();
        // The call graph groups sites by caller in function order, so
        // walking the scope in ascending order visits exactly the sites a
        // filtered walk over all of `cg.sites()` would, in the same order:
        // the edge log is unchanged and the cost no longer grows with the
        // module around the scope.
        for pos in 0..self.funcs.len() {
            for site in cg.sites_of(self.funcs[pos].id) {
                let Some(call_node) = self.node(&NodeKind::Inst(site.loc)) else {
                    continue;
                };
                let body = self.module.body(site.caller);
                let Some(Inst::Call { args, .. }) = body.inst_at(site.loc) else {
                    continue;
                };
                // One call node per site, so a duplicate pair can only come
                // from this site.
                let site_start = param_sites.len();
                for target in &site.targets {
                    let CallTarget::Defined(callee) = target else {
                        continue;
                    };
                    let Some(&callee) = self.func_nodes(*callee) else {
                        continue;
                    };
                    for (i, a) in args.iter().enumerate() {
                        let Some(pn) = callee.param(i) else {
                            continue;
                        };
                        if !param_sites[site_start..].contains(&(pn, call_node)) {
                            param_sites.push((pn, call_node));
                        }
                        match a {
                            Operand::Local(l) => {
                                let defs = self.op_defs.get(call_node, *l);
                                arg_edges.extend(defs.iter().map(|&d| (d, pn)));
                            }
                            Operand::Const(c) => const_args.push((site.loc, i, *c, pn)),
                            Operand::Null => const_args.push((site.loc, i, 0, pn)),
                            Operand::Global(g) => {
                                let gn = self.global_def(g);
                                arg_edges.push((gn, pn));
                            }
                            _ => {}
                        }
                    }
                    if callee.ret != NONE {
                        ret_edges.push((callee.ret, call_node));
                    }
                }
            }
        }
        for (from, to) in arg_edges {
            self.add_edge(from, to);
        }
        for (loc, index, value, pn) in const_args {
            let cn = match self.const_args.get(&(loc, index, value)) {
                Some(&cn) => cn,
                None => {
                    let cn = self.push_node(NodeKind::ConstArg { loc, index, value }, None);
                    self.const_args.insert((loc, index, value), cn);
                    cn
                }
            };
            self.add_edge(cn, pn);
        }
        for (from, to) in ret_edges {
            self.add_edge(from, to);
        }
        if let Store::Log {
            param_sites: log, ..
        } = &mut self.store
        {
            *log = param_sites;
        }
    }
}

/// The sites defining local `l`, ascending.
fn sites<'a>(local_off: &[u32], local_sites: &'a [u32], l: LocalId) -> &'a [u32] {
    match local_off.get(l.index() + 1) {
        Some(&hi) => &local_sites[local_off[l.index()] as usize..hi as usize],
        None => &[],
    }
}

/// The nodes defining `l` in the current reaching set, ascending.
fn reaching(sc: &Scratch, l: LocalId) -> impl Iterator<Item = NodeId> + '_ {
    sites(&sc.local_off, &sc.local_sites, l)
        .iter()
        .filter(|&&s| sc.cur[s as usize / 64] >> (s % 64) & 1 == 1)
        .map(|&s| sc.site_node[s as usize])
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn unset(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
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
                let control = pdg.control_facts(body.id).unwrap();
                for loc in body.all_locs() {
                    let n = pdg.node(&NodeKind::Inst(loc)).unwrap();
                    let expected: Vec<(NodeId, BranchEdge)> = control
                        .deps(loc.block.index())
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
