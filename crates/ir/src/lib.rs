//! `seal-ir` — mid-level intermediate representation.
//!
//! Lowers type-checked KIR ASTs ([`seal_kir::TranslationUnit`]) into a
//! control-flow-graph IR of three-address instructions, the input shape the
//! PDG construction of `seal-pdg` expects (the paper builds PDGs over LLVM
//! SSA; this IR plays that role — see DESIGN.md for the substitution).
//!
//! Besides the CFG, this crate models the two interface forms of the paper's
//! §2.1 explicitly:
//!
//! * **APIs** (`F` in Fig. 2): extern function declarations,
//! * **function pointers** (`I` in Fig. 2): function-pointer fields of
//!   structs, together with the *bindings* from designated initializers
//!   (`.buf_prepare = buffer_prepare`) that connect implementations to them.
//!
//! Indirect calls are resolved by struct-field type analysis
//! ([`callgraph`]), mirroring the paper's use of type-based indirect-call
//! reasoning [22, 50].

pub mod body;
pub mod callgraph;
pub mod codec;
pub mod ids;
pub mod lower;
pub mod module;
pub mod tac;

pub use body::{BasicBlock, FuncBody, LocalDecl, Predecessors};
pub use callgraph::CallGraph;
pub use ids::{BlockId, FuncId, LocalId};
pub use lower::{lower, lower_checked, validate_module, LowerError};
pub use module::{ApiDecl, Binding, InterfaceDef, InterfaceId, Module};
pub use tac::{Callee, Inst, Operand, Place, PlaceBase, Projection, Rvalue, Terminator};
