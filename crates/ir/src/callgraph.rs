//! Call graph construction with indirect-call resolution.
//!
//! Direct calls resolve by name. Indirect calls through a struct field
//! resolve to the implementations bound to that interface (the paper's
//! type-based indirect-call reasoning [22, 50]); indirect calls through
//! untracked pointers fall back to signature matching.

use crate::body::FuncBody;
use crate::ids::{FuncId, InstLoc};
use crate::module::{InterfaceId, Module};
use crate::tac::{Callee, Inst};
use std::collections::{BTreeSet, HashMap};

/// Resolution of one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// A function with a body in the module.
    Defined(FuncId),
    /// An external API (no body).
    Api(String),
}

/// One call site with its resolved targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Calling function.
    pub caller: FuncId,
    /// Instruction location of the call.
    pub loc: InstLoc,
    /// Resolved targets (possibly several for indirect calls).
    pub targets: Vec<CallTarget>,
    /// Interface identity, for indirect calls through a known field.
    pub interface: Option<InterfaceId>,
}

/// Whole-module call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All call sites in the module, grouped by caller in function order.
    sites: Vec<CallSite>,
    /// Compressed-row offsets into `sites`: the sites of function `f` are
    /// `sites[site_offsets[f]..site_offsets[f + 1]]`.
    site_offsets: Vec<u32>,
    callees: HashMap<FuncId, BTreeSet<FuncId>>,
    callers: HashMap<FuncId, BTreeSet<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph for a module.
    pub fn build(module: &Module) -> Self {
        let mut cg = CallGraph::default();
        cg.site_offsets.reserve(module.functions.len() + 1);
        for f in &module.functions {
            cg.site_offsets.push(cg.sites.len() as u32);
            for loc in f.inst_locs() {
                let Some(Inst::Call { callee, .. }) = f.inst_at(loc) else {
                    continue;
                };
                let (targets, interface) = resolve(module, f, callee);
                for t in &targets {
                    if let CallTarget::Defined(callee_id) = t {
                        cg.callees.entry(f.id).or_default().insert(*callee_id);
                        cg.callers.entry(*callee_id).or_default().insert(f.id);
                    }
                }
                cg.sites.push(CallSite {
                    caller: f.id,
                    loc,
                    targets,
                    interface,
                });
            }
        }
        cg.site_offsets.push(cg.sites.len() as u32);
        cg
    }

    /// All call sites in the module, grouped by caller in function order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// The call sites inside `f`, in instruction order (empty for an id
    /// outside the module).
    pub fn sites_of(&self, f: FuncId) -> &[CallSite] {
        match self.site_offsets.get(f.index()..f.index() + 2) {
            Some(&[start, end]) => &self.sites[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Defined functions directly called by `f`.
    pub fn callees(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callees.get(&f).into_iter().flatten().copied()
    }

    /// Defined functions that directly call `f`.
    pub fn callers(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callers.get(&f).into_iter().flatten().copied()
    }

    /// Approximate resident size in bytes: the sites with their targets'
    /// owned names and per-caller offsets, plus the two adjacency maps.
    /// Byte-budgeted caches charge a held call graph at this cost.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let sites: usize = self
            .sites
            .iter()
            .map(|s| {
                let targets: usize = s
                    .targets
                    .iter()
                    .map(|t| match t {
                        CallTarget::Api(name) => size_of::<CallTarget>() + name.len(),
                        CallTarget::Defined(_) => size_of::<CallTarget>(),
                    })
                    .sum();
                let iface = s
                    .interface
                    .as_ref()
                    .map_or(0, |i| i.struct_name.len() + i.field.len());
                size_of::<CallSite>() + targets + iface
            })
            .sum();
        // One map entry (key plus set header) per function with edges, and
        // one set slot per edge; 2x covers hash-map and B-tree slack.
        let entry = size_of::<FuncId>() + size_of::<BTreeSet<FuncId>>();
        let adjacency: usize = self
            .callees
            .values()
            .chain(self.callers.values())
            .map(|set| 2 * (entry + set.len() * size_of::<FuncId>()))
            .sum();
        let offsets = self.site_offsets.len() * size_of::<u32>();
        (size_of::<CallGraph>() + sites + offsets + adjacency) as u64
    }

    /// Functions reachable from `roots` through defined-function edges,
    /// including the roots.
    pub fn reachable_from(&self, roots: &[FuncId]) -> BTreeSet<FuncId> {
        let mut seen: BTreeSet<FuncId> = roots.iter().copied().collect();
        let mut stack: Vec<FuncId> = roots.to_vec();
        while let Some(f) = stack.pop() {
            for c in self.callees(f) {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// A bottom-up ordering (callees before callers) over the given
    /// functions, with cycles broken arbitrarily. Used by the summary-based
    /// inter-procedural search of §6.4.1.
    pub fn bottom_up_order(&self, funcs: &BTreeSet<FuncId>) -> Vec<FuncId> {
        let mut order = Vec::new();
        let mut state: HashMap<FuncId, u8> = HashMap::new(); // 0 new, 1 visiting, 2 done
        for &root in funcs {
            self.post_order(root, funcs, &mut state, &mut order);
        }
        order
    }

    fn post_order(
        &self,
        f: FuncId,
        scope: &BTreeSet<FuncId>,
        state: &mut HashMap<FuncId, u8>,
        out: &mut Vec<FuncId>,
    ) {
        match state.get(&f) {
            Some(_) => return,
            None => {
                state.insert(f, 1);
            }
        }
        for c in self.callees(f) {
            if scope.contains(&c) {
                self.post_order(c, scope, state, out);
            }
        }
        state.insert(f, 2);
        out.push(f);
    }
}

/// Resolves a callee to targets.
fn resolve(
    module: &Module,
    caller: &FuncBody,
    callee: &Callee,
) -> (Vec<CallTarget>, Option<InterfaceId>) {
    match callee {
        Callee::Direct(name) => match module.func_id(name) {
            Some(id) => (vec![CallTarget::Defined(id)], None),
            None => (vec![CallTarget::Api(name.clone())], None),
        },
        Callee::Indirect { ptr, via_field } => {
            if let Some((s, f)) = via_field {
                let iface = InterfaceId::new(s, f);
                let targets = module
                    .implementations(&iface)
                    .into_iter()
                    .map(|b| CallTarget::Defined(b.id))
                    .collect();
                return (targets, Some(iface));
            }
            // Fallback: signature matching on arity against all defined
            // functions whose address is taken somewhere.
            let arity = ptr_arity(caller, ptr);
            let targets = module
                .functions
                .iter()
                .filter(|f| Some(f.param_count) == arity && address_taken(module, &f.name))
                .map(|f| CallTarget::Defined(f.id))
                .collect();
            (targets, None)
        }
    }
}

/// Arity of the function type behind an operand, if statically known.
fn ptr_arity(caller: &FuncBody, ptr: &crate::tac::Operand) -> Option<usize> {
    let local = ptr.as_local()?;
    match &caller.locals.get(local.index())?.ty {
        seal_kir::types::Type::Ptr(inner) => match inner.as_ref() {
            seal_kir::types::Type::Func(sig) => Some(sig.params.len()),
            _ => None,
        },
        _ => None,
    }
}

/// Whether a function's address escapes (appears as a `FuncRef` operand or
/// in a binding).
fn address_taken(module: &Module, name: &str) -> bool {
    if module.interfaces_of(name).next().is_some() {
        return true;
    }
    module.functions.iter().any(|f| {
        f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            let mut taken = false;
            i.for_each_use(|op| {
                taken |= matches!(op, crate::tac::Operand::FuncRef(n) if n == name);
            });
            taken
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use seal_kir::compile;

    fn graph(src: &str) -> (Module, CallGraph) {
        let m = lower(&compile(src, "t.c").unwrap());
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    #[test]
    fn direct_call_edges() {
        let (m, cg) = graph(
            "int helper(int x) { return x; }\n\
             int f(int x) { return helper(x) + helper(x + 1); }",
        );
        let f = m.func_id("f").unwrap();
        let h = m.func_id("helper").unwrap();
        assert_eq!(cg.callees(f).collect::<Vec<_>>(), vec![h]);
        assert_eq!(cg.callers(h).collect::<Vec<_>>(), vec![f]);
    }

    #[test]
    fn api_call_target() {
        let (_, cg) =
            graph("void *kmalloc(unsigned long n);\nvoid *f(void) { return kmalloc(4); }");
        let api_sites: Vec<_> = cg
            .sites()
            .iter()
            .filter(|s| {
                s.targets
                    .iter()
                    .any(|t| matches!(t, CallTarget::Api(n) if n == "kmalloc"))
            })
            .collect();
        assert_eq!(api_sites.len(), 1);
    }

    #[test]
    fn indirect_call_resolves_via_interface() {
        let (m, cg) = graph(
            "struct ops { int (*prep)(int v); };\n\
             int impl_a(int v) { return v; }\n\
             int impl_b(int v) { return v + 1; }\n\
             struct ops ta = { .prep = impl_a, };\n\
             struct ops tb = { .prep = impl_b, };\n\
             int call_it(struct ops *o) { return o->prep(3); }",
        );
        let site = cg
            .sites()
            .iter()
            .find(|s| s.interface.is_some())
            .expect("indirect site");
        assert_eq!(site.targets.len(), 2);
        assert_eq!(
            site.interface.as_ref().unwrap(),
            &InterfaceId::new("ops", "prep")
        );
        let a = m.func_id("impl_a").unwrap();
        assert!(site.targets.contains(&CallTarget::Defined(a)));
    }

    #[test]
    fn signature_fallback_for_raw_pointer() {
        let (_, cg) = graph(
            "int impl_a(int v) { return v; }\n\
             int impl_b(int v, int w) { return v + w; }\n\
             struct ops { int (*cb)(int v); };\n\
             struct ops t = { .cb = impl_a, };\n\
             int call_it(int (*fp)(int x)) { return fp(1); }",
        );
        let site = cg
            .sites()
            .iter()
            .find(|s| s.interface.is_none() && !s.targets.is_empty())
            .expect("fallback site");
        // Only impl_a matches arity 1 and has its address taken.
        assert_eq!(site.targets.len(), 1);
    }

    #[test]
    fn reachability_and_bottom_up() {
        let (m, cg) = graph(
            "int c(int x) { return x; }\n\
             int b(int x) { return c(x); }\n\
             int a(int x) { return b(x); }",
        );
        let a = m.func_id("a").unwrap();
        let b = m.func_id("b").unwrap();
        let c = m.func_id("c").unwrap();
        let reach = cg.reachable_from(&[a]);
        assert_eq!(reach.len(), 3);
        let order = cg.bottom_up_order(&reach);
        let pos = |f: FuncId| order.iter().position(|&x| x == f).unwrap();
        assert!(pos(c) < pos(b));
        assert!(pos(b) < pos(a));
    }

    #[test]
    fn sites_of_equals_the_filtered_walk_for_every_function() {
        let (m, cg) = graph(
            "void *kmalloc(unsigned long n);\n\
             struct ops { int (*prep)(int v); };\n\
             int impl_a(int v) { return v; }\n\
             int impl_b(int v) { kmalloc(4); return v + 1; }\n\
             struct ops ta = { .prep = impl_a, };\n\
             struct ops tb = { .prep = impl_b, };\n\
             int leaf(int x) { return x * 2; }\n\
             int rec(int x) { if (x > 0) return rec(x - 1) + leaf(x); return 0; }\n\
             int via_iface(struct ops *o) { kmalloc(8); return o->prep(3); }\n\
             int via_ptr(int (*fp)(int x)) { return fp(1) + leaf(2); }",
        );
        let kinds = |f: &str| {
            let sites = cg.sites_of(m.func_id(f).unwrap());
            (
                sites.len(),
                sites.iter().filter(|s| s.interface.is_some()).count(),
            )
        };
        // No calls; recursion plus a direct call; an interface site plus
        // an API call; a signature-fallback site plus a direct call.
        assert_eq!(kinds("leaf"), (0, 0));
        assert_eq!(kinds("rec"), (2, 0));
        assert_eq!(kinds("via_iface"), (2, 1));
        assert_eq!(kinds("via_ptr"), (2, 0));
        let fallback = &cg.sites_of(m.func_id("via_ptr").unwrap())[0];
        assert!(fallback.interface.is_none() && fallback.targets.len() == 2);

        for f in &m.functions {
            let walked: Vec<&CallSite> = cg.sites().iter().filter(|s| s.caller == f.id).collect();
            let indexed: Vec<&CallSite> = cg.sites_of(f.id).iter().collect();
            assert_eq!(indexed, walked, "sites of {}", f.name);
        }
        let total: usize = m.functions.iter().map(|f| cg.sites_of(f.id).len()).sum();
        assert_eq!(total, cg.sites().len());
        assert!(cg.sites_of(FuncId(m.functions.len() as u32)).is_empty());
        assert!(CallGraph::default().sites_of(FuncId(0)).is_empty());
    }

    #[test]
    fn recursion_does_not_hang() {
        let (m, cg) = graph("int f(int x) { if (x > 0) return f(x - 1); return 0; }");
        let f = m.func_id("f").unwrap();
        let reach = cg.reachable_from(&[f]);
        assert_eq!(reach.len(), 1);
        assert_eq!(cg.bottom_up_order(&reach).len(), 1);
    }
}
