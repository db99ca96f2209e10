//! Binary codec for lowered modules, plus *positional* content hashes.
//!
//! The encoding is the store's fixed little-endian format (`seal-store`
//! codec primitives): tag bytes for enums, `u32` length prefixes for
//! sequences, spans included. Struct definitions are written sorted by tag
//! so the bytes are deterministic even though the registry is a `HashMap`.
//!
//! Because every span is encoded, [`module_hash`]/[`body_hash`] are
//! position-*sensitive* — two modules that differ only in line numbers
//! hash differently. That is deliberate and complements the span-free
//! hashes in `seal_kir::hash`: semantic keys decide whether *analysis
//! results* (specs) can be reused, positional keys decide whether
//! *line-bearing artifacts* (lowered bodies, bug reports) can be reused
//! byte-for-byte. [`env_hash`] is the exception: it leaves global
//! definition sites out, and [`global_refs_hash`] puts back, per body, the
//! sites of the globals that body names.

use crate::body::{BasicBlock, FuncBody, LocalDecl};
use crate::ids::{BlockId, FuncId, LocalId};
use crate::module::{ApiDecl, Binding, GlobalVar, InterfaceDef, InterfaceId, Module};
use crate::tac::{Callee, Inst, Operand, Place, PlaceBase, Projection, Rvalue, Terminator};
use seal_kir::ast::{BinOp, UnOp};
use seal_kir::span::Span;
use seal_kir::types::{Field, FuncSig, StructDef, StructRegistry, Type};
use seal_store::{CodecError, ContentHash, Dec, Enc, Hasher128};
use std::collections::BTreeSet;
use std::sync::Arc;

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::LogAnd,
    BinOp::LogOr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Gt,
    BinOp::Le,
    BinOp::Ge,
];

const UNOPS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::BitNot, UnOp::Deref, UnOp::Addr];

fn enum_tag<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table.iter().position(|t| t == v).unwrap() as u8
}

fn enum_untag<T: Copy>(table: &[T], tag: u8, what: &'static str) -> Result<T, CodecError> {
    table
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag { what, tag })
}

fn enc_span(e: &mut Enc, s: Span) {
    e.u32(s.line);
    e.u32(s.col);
}

fn dec_span(d: &mut Dec) -> Result<Span, CodecError> {
    Ok(Span {
        line: d.u32()?,
        col: d.u32()?,
    })
}

fn enc_type(e: &mut Enc, t: &Type) {
    match t {
        Type::Void => e.u8(0),
        Type::Int => e.u8(1),
        Type::Long => e.u8(2),
        Type::UInt => e.u8(3),
        Type::ULong => e.u8(4),
        Type::Char => e.u8(5),
        Type::Bool => e.u8(6),
        Type::Ptr(inner) => {
            e.u8(7);
            enc_type(e, inner);
        }
        Type::Array(elem, n) => {
            e.u8(8);
            enc_type(e, elem);
            e.u64(*n);
        }
        Type::Struct(name) => {
            e.u8(9);
            e.str(name);
        }
        Type::Func(sig) => {
            e.u8(10);
            enc_sig(e, sig);
        }
        Type::Error => e.u8(11),
    }
}

fn dec_type(d: &mut Dec) -> Result<Type, CodecError> {
    Ok(match d.u8()? {
        0 => Type::Void,
        1 => Type::Int,
        2 => Type::Long,
        3 => Type::UInt,
        4 => Type::ULong,
        5 => Type::Char,
        6 => Type::Bool,
        7 => Type::Ptr(Arc::new(dec_type(d)?)),
        8 => Type::Array(Arc::new(dec_type(d)?), d.u64()?),
        9 => Type::Struct(d.str()?.into()),
        10 => Type::Func(Arc::new(dec_sig(d)?)),
        11 => Type::Error,
        tag => return Err(CodecError::BadTag { what: "Type", tag }),
    })
}

fn enc_sig(e: &mut Enc, s: &FuncSig) {
    enc_type(e, &s.ret);
    e.u32(s.params.len() as u32);
    for p in &s.params {
        enc_type(e, p);
    }
    e.bool(s.variadic);
}

fn dec_sig(d: &mut Dec) -> Result<FuncSig, CodecError> {
    let ret = dec_type(d)?;
    let n = d.u32()?;
    let mut params = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        params.push(dec_type(d)?);
    }
    Ok(FuncSig {
        ret,
        params,
        variadic: d.bool()?,
    })
}

fn enc_operand(e: &mut Enc, o: &Operand) {
    match o {
        Operand::Local(l) => {
            e.u8(0);
            e.u32(l.0);
        }
        Operand::Global(g) => {
            e.u8(1);
            e.str(g);
        }
        Operand::Const(c) => {
            e.u8(2);
            e.i64(*c);
        }
        Operand::Null => e.u8(3),
        Operand::Str(s) => {
            e.u8(4);
            e.str(s);
        }
        Operand::FuncRef(n) => {
            e.u8(5);
            e.str(n);
        }
    }
}

fn dec_operand(d: &mut Dec) -> Result<Operand, CodecError> {
    Ok(match d.u8()? {
        0 => Operand::Local(LocalId(d.u32()?)),
        1 => Operand::Global(d.str()?.to_string()),
        2 => Operand::Const(d.i64()?),
        3 => Operand::Null,
        4 => Operand::Str(d.str()?.to_string()),
        5 => Operand::FuncRef(d.str()?.to_string()),
        tag => {
            return Err(CodecError::BadTag {
                what: "Operand",
                tag,
            })
        }
    })
}

fn enc_place(e: &mut Enc, p: &Place) {
    match &p.base {
        PlaceBase::Local(l) => {
            e.u8(0);
            e.u32(l.0);
        }
        PlaceBase::Global(g) => {
            e.u8(1);
            e.str(g);
        }
    }
    e.u32(p.projections.len() as u32);
    for proj in &p.projections {
        match proj {
            Projection::Deref => e.u8(0),
            Projection::Field {
                struct_name,
                field,
                offset,
            } => {
                e.u8(1);
                e.str(struct_name);
                e.str(field);
                e.u64(*offset);
            }
            Projection::Index { index, elem } => {
                e.u8(2);
                enc_operand(e, index);
                e.u64(*elem);
            }
        }
    }
}

fn dec_place(d: &mut Dec) -> Result<Place, CodecError> {
    let base = match d.u8()? {
        0 => PlaceBase::Local(LocalId(d.u32()?)),
        1 => PlaceBase::Global(d.str()?.to_string()),
        tag => {
            return Err(CodecError::BadTag {
                what: "PlaceBase",
                tag,
            })
        }
    };
    let n = d.u32()?;
    let mut projections = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        projections.push(match d.u8()? {
            0 => Projection::Deref,
            1 => Projection::Field {
                struct_name: d.str()?.to_string(),
                field: d.str()?.to_string(),
                offset: d.u64()?,
            },
            2 => Projection::Index {
                index: dec_operand(d)?,
                elem: d.u64()?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "Projection",
                    tag,
                })
            }
        });
    }
    Ok(Place { base, projections })
}

fn enc_inst(e: &mut Enc, i: &Inst) {
    match i {
        Inst::Assign { dest, rv } => {
            e.u8(0);
            e.u32(dest.0);
            match rv {
                Rvalue::Use(a) => {
                    e.u8(0);
                    enc_operand(e, a);
                }
                Rvalue::Unary(op, a) => {
                    e.u8(1);
                    e.u8(enum_tag(&UNOPS, op));
                    enc_operand(e, a);
                }
                Rvalue::Binary(op, a, b) => {
                    e.u8(2);
                    e.u8(enum_tag(&BINOPS, op));
                    enc_operand(e, a);
                    enc_operand(e, b);
                }
            }
        }
        Inst::Load { dest, place } => {
            e.u8(1);
            e.u32(dest.0);
            enc_place(e, place);
        }
        Inst::Store { place, value } => {
            e.u8(2);
            enc_place(e, place);
            enc_operand(e, value);
        }
        Inst::AddrOf { dest, place } => {
            e.u8(3);
            e.u32(dest.0);
            enc_place(e, place);
        }
        Inst::Call { dest, callee, args } => {
            e.u8(4);
            match dest {
                Some(l) => {
                    e.bool(true);
                    e.u32(l.0);
                }
                None => e.bool(false),
            }
            match callee {
                Callee::Direct(name) => {
                    e.u8(0);
                    e.str(name);
                }
                Callee::Indirect { ptr, via_field } => {
                    e.u8(1);
                    enc_operand(e, ptr);
                    match via_field {
                        Some((s, f)) => {
                            e.bool(true);
                            e.str(s);
                            e.str(f);
                        }
                        None => e.bool(false),
                    }
                }
            }
            e.u32(args.len() as u32);
            for a in args {
                enc_operand(e, a);
            }
        }
    }
}

fn dec_inst(d: &mut Dec) -> Result<Inst, CodecError> {
    Ok(match d.u8()? {
        0 => {
            let dest = LocalId(d.u32()?);
            let rv = match d.u8()? {
                0 => Rvalue::Use(dec_operand(d)?),
                1 => Rvalue::Unary(enum_untag(&UNOPS, d.u8()?, "UnOp")?, dec_operand(d)?),
                2 => Rvalue::Binary(
                    enum_untag(&BINOPS, d.u8()?, "BinOp")?,
                    dec_operand(d)?,
                    dec_operand(d)?,
                ),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "Rvalue",
                        tag,
                    })
                }
            };
            Inst::Assign { dest, rv }
        }
        1 => Inst::Load {
            dest: LocalId(d.u32()?),
            place: dec_place(d)?,
        },
        2 => Inst::Store {
            place: dec_place(d)?,
            value: dec_operand(d)?,
        },
        3 => Inst::AddrOf {
            dest: LocalId(d.u32()?),
            place: dec_place(d)?,
        },
        4 => {
            let dest = if d.bool()? {
                Some(LocalId(d.u32()?))
            } else {
                None
            };
            let callee = match d.u8()? {
                0 => Callee::Direct(d.str()?.to_string()),
                1 => {
                    let ptr = dec_operand(d)?;
                    let via_field = if d.bool()? {
                        Some((d.str()?.to_string(), d.str()?.to_string()))
                    } else {
                        None
                    };
                    Callee::Indirect { ptr, via_field }
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "Callee",
                        tag,
                    })
                }
            };
            let n = d.u32()?;
            let mut args = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                args.push(dec_operand(d)?);
            }
            Inst::Call { dest, callee, args }
        }
        tag => return Err(CodecError::BadTag { what: "Inst", tag }),
    })
}

fn enc_terminator(e: &mut Enc, t: &Terminator) {
    match t {
        Terminator::Goto(b) => {
            e.u8(0);
            e.u32(b.0);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            e.u8(1);
            enc_operand(e, cond);
            e.u32(then_bb.0);
            e.u32(else_bb.0);
        }
        Terminator::Switch {
            disc,
            cases,
            default,
        } => {
            e.u8(2);
            enc_operand(e, disc);
            e.u32(cases.len() as u32);
            for (v, b) in cases {
                e.i64(*v);
                e.u32(b.0);
            }
            e.u32(default.0);
        }
        Terminator::Return(v) => {
            e.u8(3);
            match v {
                Some(op) => {
                    e.bool(true);
                    enc_operand(e, op);
                }
                None => e.bool(false),
            }
        }
        Terminator::Unreachable => e.u8(4),
    }
}

fn dec_terminator(d: &mut Dec) -> Result<Terminator, CodecError> {
    Ok(match d.u8()? {
        0 => Terminator::Goto(BlockId(d.u32()?)),
        1 => Terminator::Branch {
            cond: dec_operand(d)?,
            then_bb: BlockId(d.u32()?),
            else_bb: BlockId(d.u32()?),
        },
        2 => {
            let disc = dec_operand(d)?;
            let n = d.u32()?;
            let mut cases = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                cases.push((d.i64()?, BlockId(d.u32()?)));
            }
            Terminator::Switch {
                disc,
                cases,
                default: BlockId(d.u32()?),
            }
        }
        3 => Terminator::Return(if d.bool()? {
            Some(dec_operand(d)?)
        } else {
            None
        }),
        4 => Terminator::Unreachable,
        tag => {
            return Err(CodecError::BadTag {
                what: "Terminator",
                tag,
            })
        }
    })
}

/// Encodes one function body.
pub fn encode_body(e: &mut Enc, f: &FuncBody) {
    e.str(&f.name);
    e.u32(f.id.0);
    enc_type(e, &f.ret_ty);
    e.u32(f.locals.len() as u32);
    for l in &f.locals {
        e.str(&l.name);
        enc_type(e, &l.ty);
        e.bool(l.is_temp);
        e.bool(l.is_param);
        enc_span(e, l.span);
    }
    e.usize(f.param_count);
    e.u32(f.blocks.len() as u32);
    for b in &f.blocks {
        e.u32(b.insts.len() as u32);
        for (i, inst) in b.insts.iter().enumerate() {
            enc_inst(e, inst);
            enc_span(e, b.spans.get(i).copied().unwrap_or(Span::DUMMY));
        }
        enc_terminator(e, &b.terminator);
        enc_span(e, b.term_span);
    }
    enc_span(e, f.span);
}

/// Decodes one function body.
pub fn decode_body(d: &mut Dec) -> Result<FuncBody, CodecError> {
    let name = d.str()?.to_string();
    let id = FuncId(d.u32()?);
    let ret_ty = dec_type(d)?;
    let nlocals = d.u32()?;
    let mut locals = Vec::with_capacity(nlocals.min(4096) as usize);
    for _ in 0..nlocals {
        locals.push(LocalDecl {
            name: d.str()?.to_string(),
            ty: dec_type(d)?,
            is_temp: d.bool()?,
            is_param: d.bool()?,
            span: dec_span(d)?,
        });
    }
    let param_count = d.usize()?;
    let nblocks = d.u32()?;
    let mut blocks = Vec::with_capacity(nblocks.min(4096) as usize);
    for _ in 0..nblocks {
        let ninsts = d.u32()?;
        let mut insts = Vec::with_capacity(ninsts.min(4096) as usize);
        let mut spans = Vec::with_capacity(ninsts.min(4096) as usize);
        for _ in 0..ninsts {
            insts.push(dec_inst(d)?);
            spans.push(dec_span(d)?);
        }
        let terminator = dec_terminator(d)?;
        let term_span = dec_span(d)?;
        blocks.push(BasicBlock {
            insts,
            spans,
            terminator,
            term_span,
        });
    }
    let span = dec_span(d)?;
    Ok(FuncBody {
        name,
        id,
        ret_ty,
        locals,
        param_count,
        blocks,
        span,
    })
}

/// Encodes everything about a module *except* its function bodies: name,
/// struct layouts (sorted by tag), globals, APIs, interfaces, bindings —
/// the environment every per-function analysis reads. `global_spans`
/// selects whether each global's definition site is written: the module
/// codec keeps it, [`env_hash`] leaves it to [`global_refs_hash`].
fn enc_env(e: &mut Enc, m: &Module, global_spans: bool) {
    e.str(&m.name);

    let mut defs: Vec<&StructDef> = m.structs.iter().collect();
    defs.sort_by(|a, b| a.name.cmp(&b.name));
    e.u32(defs.len() as u32);
    for def in defs {
        e.str(&def.name);
        e.u32(def.fields.len() as u32);
        for f in &def.fields {
            e.str(&f.name);
            enc_type(e, &f.ty);
            e.u64(f.offset);
        }
        e.u64(def.size);
        e.bool(def.is_union);
    }

    e.u32(m.globals.len() as u32);
    for g in &m.globals {
        e.str(&g.name);
        enc_type(e, &g.ty);
        match g.const_init {
            Some(v) => {
                e.bool(true);
                e.i64(v);
            }
            None => e.bool(false),
        }
        if global_spans {
            enc_span(e, g.span);
        }
    }

    e.u32(m.apis.len() as u32);
    for a in &m.apis {
        e.str(&a.name);
        enc_type(e, &a.ret);
        e.u32(a.params.len() as u32);
        for p in &a.params {
            enc_type(e, p);
        }
        e.bool(a.variadic);
    }

    e.u32(m.interfaces.len() as u32);
    for i in &m.interfaces {
        e.str(&i.id.struct_name);
        e.str(&i.id.field);
        enc_sig(e, &i.sig);
    }

    e.u32(m.bindings.len() as u32);
    for b in &m.bindings {
        e.str(&b.interface.struct_name);
        e.str(&b.interface.field);
        e.str(&b.func);
    }
}

/// Encodes a whole lowered module into deterministic bytes (struct
/// definitions sorted by tag; everything else in module order).
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut e = Enc::new();
    enc_env(&mut e, m, true);
    e.u32(m.functions.len() as u32);
    for f in &m.functions {
        encode_body(&mut e, f);
    }
    e.into_bytes()
}

/// Decodes a module, consuming the whole buffer (trailing bytes are an
/// error). Never panics on malformed input.
pub fn decode_module(bytes: &[u8]) -> Result<Module, CodecError> {
    let mut d = Dec::new(bytes);
    let name = d.str()?.to_string();

    let ndefs = d.u32()?;
    let mut structs = StructRegistry::new();
    for _ in 0..ndefs {
        let sname = d.str()?.to_string();
        let nfields = d.u32()?;
        let mut fields = Vec::with_capacity(nfields.min(4096) as usize);
        for _ in 0..nfields {
            fields.push(Field {
                name: d.str()?.to_string(),
                ty: dec_type(&mut d)?,
                offset: d.u64()?,
            });
        }
        structs.insert(StructDef {
            name: sname,
            fields,
            size: d.u64()?,
            is_union: d.bool()?,
        });
    }

    let nglobals = d.u32()?;
    let mut globals = Vec::with_capacity(nglobals.min(65536) as usize);
    for _ in 0..nglobals {
        globals.push(GlobalVar {
            name: d.str()?.to_string(),
            ty: dec_type(&mut d)?,
            const_init: if d.bool()? { Some(d.i64()?) } else { None },
            span: dec_span(&mut d)?,
        });
    }

    let napis = d.u32()?;
    let mut apis = Vec::with_capacity(napis.min(65536) as usize);
    for _ in 0..napis {
        let aname = d.str()?.to_string();
        let ret = dec_type(&mut d)?;
        let nparams = d.u32()?;
        let mut params = Vec::with_capacity(nparams.min(1024) as usize);
        for _ in 0..nparams {
            params.push(dec_type(&mut d)?);
        }
        apis.push(ApiDecl {
            name: aname,
            ret,
            params,
            variadic: d.bool()?,
        });
    }

    let nifaces = d.u32()?;
    let mut interfaces = Vec::with_capacity(nifaces.min(65536) as usize);
    for _ in 0..nifaces {
        interfaces.push(InterfaceDef {
            id: InterfaceId {
                struct_name: d.str()?.to_string(),
                field: d.str()?.to_string(),
            },
            sig: dec_sig(&mut d)?,
        });
    }

    let nbinds = d.u32()?;
    let mut bindings = Vec::with_capacity(nbinds.min(65536) as usize);
    for _ in 0..nbinds {
        bindings.push(Binding {
            interface: InterfaceId {
                struct_name: d.str()?.to_string(),
                field: d.str()?.to_string(),
            },
            func: d.str()?.to_string(),
        });
    }

    let nfuncs = d.u32()?;
    let mut functions = Vec::with_capacity(nfuncs.min(65536) as usize);
    for _ in 0..nfuncs {
        functions.push(decode_body(&mut d)?);
    }

    d.finish()?;
    Ok(Module {
        name,
        structs,
        functions,
        globals,
        apis,
        interfaces,
        bindings,
        name_index: std::sync::OnceLock::new(),
        global_index: std::sync::OnceLock::new(),
        binding_index: std::sync::OnceLock::new(),
        direct_callers: std::sync::OnceLock::new(),
    })
}

/// Positional content hash of a whole module: spans, module name, and
/// definition order all included (hashes the canonical encoding).
pub fn module_hash(m: &Module) -> ContentHash {
    let mut h = Hasher128::new();
    h.update_str("ir.module.v1");
    h.update_bytes(&encode_module(m));
    h.finish()
}

/// Content hash of the module *environment* — everything per-function
/// analyses read except function bodies (name, struct layouts, globals,
/// APIs, interfaces, bindings). Lets callers build keys that survive edits
/// to unrelated functions.
///
/// Position-free: global definition sites are left out, so inserting a
/// line above a global keeps the hash. A global's site reaches analysis
/// output only as the line of its PDG definition node, and that node
/// exists only in a PDG whose scope body names the global — a key covers
/// it with [`global_refs_hash`] of those bodies.
pub fn env_hash(m: &Module) -> ContentHash {
    let mut e = Enc::new();
    enc_env(&mut e, m, false);
    let mut h = Hasher128::new();
    h.update_str("ir.env.v2");
    h.update_bytes(&e.into_bytes());
    h.finish()
}

/// Positional hash of the definition sites of the globals one body names:
/// `(name, span)` of each, in name order, looked up in `m` (a name with no
/// definition hashes as absent). Unlike [`body_hash`] it moves when a
/// named global's definition moves, and only then.
pub fn global_refs_hash(m: &Module, f: &FuncBody) -> ContentHash {
    let mut names = BTreeSet::new();
    for b in &f.blocks {
        for inst in &b.insts {
            inst_globals(inst, &mut names);
        }
        if let Some(op) = b.terminator.operand() {
            operand_global(op, &mut names);
        }
    }
    let mut e = Enc::new();
    e.u32(names.len() as u32);
    for name in names {
        e.str(name);
        match m.global(name) {
            Some(g) => {
                e.bool(true);
                enc_span(&mut e, g.span);
            }
            None => e.bool(false),
        }
    }
    let mut h = Hasher128::new();
    h.update_str("ir.globals.v1");
    h.update_bytes(&e.into_bytes());
    h.finish()
}

/// Adds the globals an instruction names — operands, place bases, index
/// operands and an indirect callee — to `out`.
fn inst_globals<'a>(i: &'a Inst, out: &mut BTreeSet<&'a str>) {
    match i {
        Inst::Assign { rv, .. } => {
            for op in rv.operands() {
                operand_global(op, out);
            }
        }
        Inst::Load { place, .. } | Inst::AddrOf { place, .. } => place_globals(place, out),
        Inst::Store { place, value } => {
            place_globals(place, out);
            operand_global(value, out);
        }
        Inst::Call { callee, args, .. } => {
            if let Callee::Indirect { ptr, .. } = callee {
                operand_global(ptr, out);
            }
            for a in args {
                operand_global(a, out);
            }
        }
    }
}

fn place_globals<'a>(p: &'a Place, out: &mut BTreeSet<&'a str>) {
    if let PlaceBase::Global(g) = &p.base {
        out.insert(g);
    }
    for proj in &p.projections {
        if let Projection::Index { index, .. } = proj {
            operand_global(index, out);
        }
    }
}

fn operand_global<'a>(o: &'a Operand, out: &mut BTreeSet<&'a str>) {
    if let Operand::Global(g) = o {
        out.insert(g);
    }
}

/// Positional content hash of one lowered body (spans included).
pub fn body_hash(f: &FuncBody) -> ContentHash {
    let mut e = Enc::new();
    encode_body(&mut e, f);
    let mut h = Hasher128::new();
    h.update_str("ir.body.v1");
    h.update_bytes(&e.into_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    const SRC: &str = "#define ENOMEM 12\n\
         void free_buf(int *p);\n\
         int *alloc_buf(unsigned long size);\n\
         struct ops { int (*prep)(struct dev *d); };\n\
         struct dev { int *cpu; int state; char tag[8]; };\n\
         int g_mode = 3;\n\
         static int prep_impl(struct dev *d) {\n\
           int *buf = alloc_buf(64);\n\
           if (buf == NULL) return -ENOMEM;\n\
           d->cpu = buf;\n\
           d->tag[0] = 1;\n\
           switch (d->state) { case 0: free_buf(buf); break; default: break; }\n\
           while (d->state > 0) { d->state = d->state - 1; }\n\
           return g_mode > 0 ? 0 : -1;\n\
         }\n\
         struct ops table = { .prep = prep_impl, };\n";

    fn sample_module() -> Module {
        let tu = seal_kir::compile(SRC, "drivers/sample.c").unwrap();
        lower(&tu)
    }

    #[test]
    fn module_round_trips_exactly() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).unwrap();

        assert_eq!(back.name, m.name);
        assert_eq!(back.functions, m.functions);
        assert_eq!(back.globals, m.globals);
        assert_eq!(back.apis, m.apis);
        assert_eq!(back.interfaces, m.interfaces);
        assert_eq!(back.bindings, m.bindings);
        let mut a: Vec<_> = m.structs.iter().collect();
        let mut b: Vec<_> = back.structs.iter().collect();
        a.sort_by(|x, y| x.name.cmp(&y.name));
        b.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(a, b);

        // Canonical: re-encoding the decoded module reproduces the bytes.
        assert_eq!(encode_module(&back), bytes);
        // And the decoded module behaves (name index rebuilt lazily).
        assert!(back.function("prep_impl").is_some());
        assert_eq!(back.dump(), m.dump());
    }

    #[test]
    fn lazy_indexes_survive_a_round_trip() {
        use crate::callgraph::CallGraph;
        let m = crate::module::tests::indexed_module();
        // Build every index on the original first: the decoded module
        // must rebuild its own rather than start from stale ones.
        crate::module::tests::assert_indexes_match_scans(&m);
        let back = decode_module(&encode_module(&m)).unwrap();
        crate::module::tests::assert_indexes_match_scans(&back);
        assert_eq!(
            back.interfaces_of("twice").collect::<Vec<_>>(),
            m.interfaces_of("twice").collect::<Vec<_>>()
        );
        let callers = |m: &Module| -> Vec<(FuncId, usize)> {
            m.callers_of_api("kmalloc")
                .map(|(f, n)| (f.id, n))
                .collect()
        };
        assert_eq!(callers(&back), callers(&m));
        let (cg, cg_back) = (CallGraph::build(&m), CallGraph::build(&back));
        for f in &m.functions {
            assert_eq!(
                cg_back.sites_of(f.id),
                cg.sites_of(f.id),
                "sites of {}",
                f.name
            );
        }
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let bytes = encode_module(&sample_module());
        for cut in 0..bytes.len() {
            assert!(
                decode_module(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_module(&padded),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn corrupted_tags_never_panic() {
        let bytes = encode_module(&sample_module());
        // Overwrite each byte with an out-of-range tag value; decode must
        // return (Ok or Err), never unwind.
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] = 0xC7;
            let _ = decode_module(&mutated);
        }
    }

    #[test]
    fn module_hash_is_positional() {
        let m1 = sample_module();
        // Same code, shifted one line down: semantic twin, positional differ.
        let tu = seal_kir::compile(&format!("\n{SRC}"), "drivers/sample.c").unwrap();
        let m2 = lower(&tu);
        assert_ne!(module_hash(&m1), module_hash(&m2));
        assert_eq!(module_hash(&m1), module_hash(&sample_module()));

        let f1 = m1.function("prep_impl").unwrap();
        let f2 = m2.function("prep_impl").unwrap();
        assert_ne!(body_hash(f1), body_hash(f2));
        assert_eq!(body_hash(f1), body_hash(m1.function("prep_impl").unwrap()));
    }

    /// `int g_a`, `int g_b`, one API declaration placed by `order`, and
    /// three functions at fixed lines: one names `g_a`, one stores to
    /// `g_b`, one names no global.
    fn globals_module(order: &str, g_b: &str) -> Module {
        let line = |c: char| match c {
            'a' => "int g_a = 1;\n".to_string(),
            'b' => format!("{g_b}\n"),
            _ => "void ext(int x);\n".to_string(),
        };
        let mut src: String = order.chars().map(line).collect();
        src.push_str(
            "int use_a(int x) { return x + g_a; }\n\
             int use_b(int x) { g_b = x; return 0; }\n\
             int use_none(int x) { ext(x); return x; }\n",
        );
        lower(&seal_kir::compile(&src, "drivers/globals.c").unwrap())
    }

    #[test]
    fn env_hash_ignores_global_sites_but_sees_types_and_initializers() {
        let m = globals_module("abd", "int g_b = 2;");
        // `g_b` one line lower, every function where it was.
        let moved = globals_module("adb", "int g_b = 2;");
        assert_ne!(
            m.global("g_b").unwrap().span,
            moved.global("g_b").unwrap().span
        );
        assert_eq!(
            m.global("g_a").unwrap().span,
            moved.global("g_a").unwrap().span
        );
        assert_eq!(env_hash(&m), env_hash(&moved));
        // The module codec keeps the sites.
        assert_ne!(module_hash(&m), module_hash(&moved));
        assert_eq!(
            decode_module(&encode_module(&moved)).unwrap().globals,
            moved.globals
        );

        assert_ne!(
            env_hash(&m),
            env_hash(&globals_module("abd", "long g_b = 2;"))
        );
        assert_ne!(
            env_hash(&m),
            env_hash(&globals_module("abd", "int g_b = 5;"))
        );
    }

    #[test]
    fn global_refs_hash_moves_only_for_bodies_naming_the_moved_global() {
        let m = globals_module("abd", "int g_b = 2;");
        let moved = globals_module("adb", "int g_b = 2;");
        let refs = |m: &Module, f: &str| global_refs_hash(m, m.function(f).unwrap());
        let body = |m: &Module, f: &str| body_hash(m.function(f).unwrap());
        for f in ["use_a", "use_b", "use_none"] {
            assert_eq!(body(&m, f), body(&moved, f), "{f} body moved");
        }
        assert_ne!(refs(&m, "use_b"), refs(&moved, "use_b"));
        assert_eq!(refs(&m, "use_a"), refs(&moved, "use_a"));
        assert_eq!(refs(&m, "use_none"), refs(&moved, "use_none"));
        // Only names and sites count: a new initializer keeps the hash
        // (the environment hash sees it).
        let reinit = globals_module("abd", "int g_b = 5;");
        assert_eq!(refs(&m, "use_b"), refs(&reinit, "use_b"));
        // And bodies naming different globals hash apart.
        assert_ne!(refs(&m, "use_a"), refs(&m, "use_none"));
    }

    #[test]
    fn module_hash_sees_renamed_module() {
        let m1 = sample_module();
        let tu = seal_kir::compile(SRC, "fs/other.c").unwrap();
        let m2 = lower(&tu);
        assert_ne!(module_hash(&m1), module_hash(&m2));
    }
}
