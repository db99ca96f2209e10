//! Module model: functions, globals, APIs, interfaces, and bindings.

use crate::body::FuncBody;
use crate::ids::FuncId;
use seal_kir::span::Span;
use seal_kir::types::{FuncSig, StructRegistry, Type};

/// Identity of a function-pointer interface: a `(struct, field)` pair such
/// as `vb2_ops::buf_prepare` (the `I` domain of the paper's Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterfaceId {
    /// Struct tag declaring the function-pointer field.
    pub struct_name: String,
    /// Field name.
    pub field: String,
}

impl InterfaceId {
    /// Creates an interface id.
    pub fn new(struct_name: impl Into<String>, field: impl Into<String>) -> Self {
        InterfaceId {
            struct_name: struct_name.into(),
            field: field.into(),
        }
    }
}

impl std::fmt::Display for InterfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.struct_name, self.field)
    }
}

/// A function-pointer interface declaration with its signature.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceDef {
    /// Identity.
    pub id: InterfaceId,
    /// Declared signature.
    pub sig: FuncSig,
}

/// An API declaration (extern prototype) — the `F` domain of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiDecl {
    /// API name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Whether variadic.
    pub variadic: bool,
}

/// A binding of an implementation function to an interface, discovered from
/// a designated initializer or a store of a function reference into a
/// struct field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binding {
    /// Bound interface.
    pub interface: InterfaceId,
    /// Implementation function name.
    pub func: String,
}

/// Positions in [`Module::bindings`], grouped by implementing function and
/// by interface, each group in binding order.
#[derive(Debug, Clone, Default)]
pub(crate) struct BindingIndex {
    by_func: std::collections::HashMap<String, Vec<u32>>,
    by_interface: std::collections::HashMap<InterfaceId, Vec<u32>>,
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Constant scalar initializer when statically known.
    pub const_init: Option<i64>,
    /// Definition site.
    pub span: Span,
}

/// A lowered compilation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module label (file name or synthetic id).
    pub name: String,
    /// Struct layouts carried over from the frontend.
    pub structs: StructRegistry,
    /// Lowered function bodies, indexed by [`FuncId`].
    pub functions: Vec<FuncBody>,
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// API declarations (externs without bodies).
    pub apis: Vec<ApiDecl>,
    /// Function-pointer interfaces found in struct definitions, sorted by
    /// id (lowering sorts them; [`Module::interface`] binary-searches).
    pub interfaces: Vec<InterfaceDef>,
    /// Interface-to-implementation bindings.
    pub bindings: Vec<Binding>,
    /// Lazily built name → id index for function lookups. The module is
    /// immutable once lowering returns; the index is built on the first
    /// lookup (name-based lookups are on the detection hot path, where a
    /// linear scan over `functions` shows up in profiles).
    pub(crate) name_index: std::sync::OnceLock<std::collections::HashMap<String, FuncId>>,
    /// Lazily built name → position index for [`Module::global`] (shard
    /// keys look up every global a body names).
    pub(crate) global_index: std::sync::OnceLock<std::collections::HashMap<String, usize>>,
    /// Lazily built binding positions by implementing function and by
    /// interface, for [`Module::interfaces_of`] (every parameter node of
    /// every PDG asks whether its function implements an interface) and
    /// [`Module::implementations`] (region enumeration, once per spec).
    pub(crate) binding_index: std::sync::OnceLock<BindingIndex>,
    /// Lazily built callee name → `(caller, direct call count)` index for
    /// [`Module::callers_of_api`], callers in function order (region
    /// enumeration asks it for every API of every spec).
    pub(crate) direct_callers:
        std::sync::OnceLock<std::collections::HashMap<String, Vec<(FuncId, usize)>>>,
}

impl Module {
    fn name_index(&self) -> &std::collections::HashMap<String, FuncId> {
        self.name_index.get_or_init(|| {
            self.functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
                .collect()
        })
    }

    /// Looks up a function body by name.
    pub fn function(&self, name: &str) -> Option<&FuncBody> {
        self.func_id(name).map(|id| &self.functions[id.index()])
    }

    /// Looks up a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.name_index().get(name).copied()
    }

    /// Looks up a global by name (the first definition, should a name
    /// repeat).
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        let index = self.global_index.get_or_init(|| {
            let mut index = std::collections::HashMap::with_capacity(self.globals.len());
            for (i, g) in self.globals.iter().enumerate() {
                index.entry(g.name.clone()).or_insert(i);
            }
            index
        });
        index.get(name).map(|&i| &self.globals[i])
    }

    /// The body for an id.
    pub fn body(&self, id: FuncId) -> &FuncBody {
        &self.functions[id.index()]
    }

    /// Looks up an API declaration by name. Any called function without a
    /// body in this module counts as an API.
    pub fn api(&self, name: &str) -> Option<&ApiDecl> {
        self.apis.iter().find(|a| a.name == name)
    }

    /// True if `name` names an API (declared or implicit) rather than a
    /// defined function.
    pub fn is_api(&self, name: &str) -> bool {
        self.function(name).is_none()
    }

    /// Looks up an interface definition in the id-sorted `interfaces`.
    pub fn interface(&self, id: &InterfaceId) -> Option<&InterfaceDef> {
        self.interfaces
            .binary_search_by(|i| i.id.cmp(id))
            .ok()
            .map(|at| &self.interfaces[at])
    }

    fn binding_index(&self) -> &BindingIndex {
        self.binding_index.get_or_init(|| {
            let mut index = BindingIndex::default();
            for (i, b) in self.bindings.iter().enumerate() {
                index
                    .by_func
                    .entry(b.func.clone())
                    .or_default()
                    .push(i as u32);
                index
                    .by_interface
                    .entry(b.interface.clone())
                    .or_default()
                    .push(i as u32);
            }
            index
        })
    }

    /// All implementations bound to an interface, in binding order.
    pub fn implementations(&self, id: &InterfaceId) -> Vec<&FuncBody> {
        self.binding_index()
            .by_interface
            .get(id)
            .into_iter()
            .flatten()
            .filter_map(|&i| self.function(&self.bindings[i as usize].func))
            .collect()
    }

    /// The interfaces a function is bound to (usually zero or one), in
    /// binding order.
    pub fn interfaces_of(&self, func: &str) -> impl Iterator<Item = &InterfaceId> + '_ {
        self.binding_index()
            .by_func
            .get(func)
            .into_iter()
            .flatten()
            .map(|&i| &self.bindings[i as usize].interface)
    }

    /// All function bodies that call the named API directly, with the
    /// number of such call sites, in function order.
    pub fn callers_of_api(&self, api: &str) -> impl Iterator<Item = (&FuncBody, usize)> + '_ {
        let index = self.direct_callers.get_or_init(|| {
            let mut index = std::collections::HashMap::<String, Vec<(FuncId, usize)>>::new();
            for f in &self.functions {
                for inst in f.blocks.iter().flat_map(|b| &b.insts) {
                    let crate::tac::Inst::Call {
                        callee: crate::tac::Callee::Direct(name),
                        ..
                    } = inst
                    else {
                        continue;
                    };
                    let callers = index.entry(name.clone()).or_default();
                    match callers.last_mut() {
                        Some((id, n)) if *id == f.id => *n += 1,
                        _ => callers.push((f.id, 1)),
                    }
                }
            }
            index
        });
        index
            .get(api)
            .into_iter()
            .flatten()
            .map(|&(id, n)| (self.body(id), n))
    }
}

/// Summary counters for a module (observability / harness output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleStats {
    /// Defined functions.
    pub functions: usize,
    /// Basic blocks across all functions.
    pub blocks: usize,
    /// Instructions across all functions (terminators excluded).
    pub instructions: usize,
    /// Declared APIs.
    pub apis: usize,
    /// Function-pointer interfaces.
    pub interfaces: usize,
    /// Interface-to-implementation bindings.
    pub bindings: usize,
}

impl Module {
    /// Computes summary counters.
    pub fn stats(&self) -> ModuleStats {
        ModuleStats {
            functions: self.functions.len(),
            blocks: self.functions.iter().map(|f| f.blocks.len()).sum(),
            instructions: self
                .functions
                .iter()
                .flat_map(|f| &f.blocks)
                .map(|b| b.insts.len())
                .sum(),
            apis: self.apis.len(),
            interfaces: self.interfaces.len(),
            bindings: self.bindings.len(),
        }
    }

    /// Renders every function body as readable text.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            out.push_str(&f.dump());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn interface_id_display() {
        let id = InterfaceId::new("vb2_ops", "buf_prepare");
        assert_eq!(id.to_string(), "vb2_ops::buf_prepare");
    }

    #[test]
    fn stats_count_everything() {
        let tu = seal_kir::compile(
            "void api_a(int x);\n\
             struct ops { int (*cb)(int v); };\n\
             int impl_a(int v) { if (v > 0) { api_a(v); } return v; }\n\
             struct ops t = { .cb = impl_a, };",
            "t.c",
        )
        .unwrap();
        let m = crate::lower::lower(&tu);
        let st = m.stats();
        assert_eq!(st.functions, 1);
        assert_eq!(st.apis, 1);
        assert_eq!(st.interfaces, 1);
        assert_eq!(st.bindings, 1);
        assert!(st.blocks >= 3);
        assert!(st.instructions >= 2);
        assert!(m.dump().contains("impl_a"));
    }

    /// Interfaces: `twice` implements two fields, `once` one, `never`
    /// none. Calls: `kmalloc` twice from `twice`, once from `once`, never
    /// from `never`; `once` also calls the defined `never`.
    const INDEXED: &str = "void *kmalloc(unsigned long n);\n\
         void kfree(void *p);\n\
         struct ops { int (*open)(int v); int (*probe)(int v); };\n\
         int never(int v) { return v; }\n\
         int twice(int v) { kmalloc(1); kfree(kmalloc(2)); return v; }\n\
         int once(int v) { kmalloc(3); return never(v); }\n\
         struct ops a = { .open = twice, .probe = twice, };\n\
         struct ops b = { .open = once, };";

    pub(crate) fn indexed_module() -> Module {
        crate::lower::lower(&seal_kir::compile(INDEXED, "t.c").unwrap())
    }

    /// The linear scans the lazy indexes replace.
    fn scanned_interfaces<'m>(m: &'m Module, func: &str) -> Vec<&'m InterfaceId> {
        m.bindings
            .iter()
            .filter(|b| b.func == func)
            .map(|b| &b.interface)
            .collect()
    }

    fn scanned_callers(m: &Module, api: &str) -> Vec<(FuncId, usize)> {
        m.functions
            .iter()
            .filter_map(|f| {
                let n = f
                    .blocks
                    .iter()
                    .flat_map(|b| &b.insts)
                    .filter(|i| {
                        matches!(i, crate::tac::Inst::Call { callee: crate::tac::Callee::Direct(name), .. } if name == api)
                    })
                    .count();
                (n > 0).then_some((f.id, n))
            })
            .collect()
    }

    /// Asserts every index answer of `m` equals the scan over `m`.
    pub(crate) fn assert_indexes_match_scans(m: &Module) {
        for func in ["twice", "once", "never", "kmalloc"] {
            assert_eq!(
                m.interfaces_of(func).collect::<Vec<_>>(),
                scanned_interfaces(m, func),
                "interfaces of {func}"
            );
        }
        for api in ["kmalloc", "kfree", "never", "absent"] {
            let indexed: Vec<(FuncId, usize)> =
                m.callers_of_api(api).map(|(f, n)| (f.id, n)).collect();
            assert_eq!(indexed, scanned_callers(m, api), "callers of {api}");
        }
        for iface in [
            InterfaceId::new("ops", "open"),
            InterfaceId::new("ops", "probe"),
        ] {
            let scanned: Vec<&FuncBody> = m
                .bindings
                .iter()
                .filter(|b| b.interface == iface)
                .filter_map(|b| m.function(&b.func))
                .collect();
            let names = |v: Vec<&FuncBody>| v.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(m.implementations(&iface)), names(scanned));
        }
    }

    #[test]
    fn lazy_indexes_equal_the_linear_scans() {
        let m = indexed_module();
        assert_indexes_match_scans(&m);
        // Bound twice (in binding order), once, never.
        let open = InterfaceId::new("ops", "open");
        let probe = InterfaceId::new("ops", "probe");
        assert_eq!(
            m.interfaces_of("twice").collect::<Vec<_>>(),
            vec![&open, &probe]
        );
        assert_eq!(m.interfaces_of("once").collect::<Vec<_>>(), vec![&open]);
        assert_eq!(m.interfaces_of("never").count(), 0);
        // Call counts per caller, callers in function order.
        let callers: Vec<(&str, usize)> = m
            .callers_of_api("kmalloc")
            .map(|(f, n)| (f.name.as_str(), n))
            .collect();
        assert_eq!(callers, vec![("twice", 2), ("once", 1)]);
        assert_eq!(m.callers_of_api("absent").count(), 0);
    }

    #[test]
    fn empty_module_lookups() {
        let m = Module::default();
        assert!(m.function("f").is_none());
        assert!(m.is_api("kmalloc"));
        assert!(m.implementations(&InterfaceId::new("a", "b")).is_empty());
    }
}
