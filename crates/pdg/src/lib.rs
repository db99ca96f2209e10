//! `seal-pdg` — program dependence graphs and value-flow slicing.
//!
//! Implements Def. 6.1 of the paper: a PDG `G = (V, E_d, E_c, E_o)` whose
//! nodes are IR statements and whose edges capture
//!
//! * **data dependence** (`E_d`): local def-use chains, memory dependence
//!   through a field-sensitive access-path alias analysis
//!   ([`points_to`]), and inter-procedural actual/formal + return/receiver
//!   binding,
//! * **control dependence** (`E_c`): computed from post-dominance frontiers
//!   ([`domtree`]),
//! * **control-flow order** (`E_o`): the per-function `Ω` ordering used by
//!   the order-precedence relation `u1 ≺ u2`.
//!
//! On top of the graph, [`mod@slice`] enumerates inter-procedural value-flow
//! paths (Def. 6.2) with their path conditions `Ψ` ([`cond`]) and order
//! stamps `Ω`, which are the raw material of SEAL's PDG differentiation and
//! bug detection.

pub mod arena;
pub mod cell;
pub mod cond;
pub mod domtree;
pub mod graph;
pub mod points_to;
pub mod slice;

pub use cell::{Cell, CellRoot, PathElem};
pub use graph::{NodeId, NodeKind, Pdg, PdgError, UseKind};
pub use slice::{SliceConfig, ValueFlowPath};
