//! Seeded property tests for the path-condition solver: soundness of
//! `is_sat` against brute-force evaluation, and semantic invariance of the
//! normal-form transformations. Driven by the in-tree PRNG so the suite
//! runs fully offline.

use seal_obs::metrics::{self, MetricValue};
use seal_runtime::rng::Rng;
use seal_solver::{
    implies, is_sat, CmpOp, Formula, FormulaInterner, FormulaSnapshot, SolverCache, Term, Verdict,
};
use std::collections::HashMap;
use std::sync::Arc;

const CASES: usize = 200;

/// Number of variables in generated formulas.
const VARS: u8 = 3;
/// Candidate values each variable ranges over in brute force. Includes the
/// constants used by atoms plus sentinels outside them.
const DOMAIN: [i64; 6] = [-2, -1, 0, 1, 2, 7];

fn gen_term(rng: &mut Rng) -> Term<u8> {
    if rng.gen_bool(0.5) {
        Term::Var(rng.gen_range(0..VARS))
    } else {
        Term::Const([-2i64, -1, 0, 1, 2][rng.gen_range(0..5usize)])
    }
}

fn gen_cmp(rng: &mut Rng) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0..6usize)]
}

fn gen_formula(rng: &mut Rng, depth: u32) -> Formula<u8> {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..4usize) {
            0 => Formula::True,
            1 => Formula::False,
            _ => {
                let (l, op, r) = (gen_term(rng), gen_cmp(rng), gen_term(rng));
                Formula::atom(l, op, r)
            }
        };
    }
    match rng.gen_range(0..3usize) {
        0 => {
            let n = rng.gen_range(1..3usize);
            Formula::And((0..n).map(|_| gen_formula(rng, depth - 1)).collect())
        }
        1 => {
            let n = rng.gen_range(1..3usize);
            Formula::Or((0..n).map(|_| gen_formula(rng, depth - 1)).collect())
        }
        _ => gen_formula(rng, depth - 1).negate(),
    }
}

/// Ground-truth evaluation under an assignment.
fn eval(f: &Formula<u8>, env: &HashMap<u8, i64>) -> bool {
    let term = |t: &Term<u8>| match t {
        Term::Var(v) => env[v],
        Term::Const(c) => *c,
    };
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => a.op.eval(term(&a.lhs), term(&a.rhs)),
        Formula::Not(inner) => !eval(inner, env),
        Formula::And(xs) => xs.iter().all(|x| eval(x, env)),
        Formula::Or(xs) => xs.iter().any(|x| eval(x, env)),
    }
}

/// All assignments over the finite probe domain.
fn assignments() -> Vec<HashMap<u8, i64>> {
    let mut out = vec![HashMap::new()];
    for v in 0..VARS {
        let mut next = Vec::new();
        for env in &out {
            for &val in &DOMAIN {
                let mut e = env.clone();
                e.insert(v, val);
                next.push(e);
            }
        }
        out = next;
    }
    out
}

/// If the solver says Unsat, no probe assignment may satisfy the formula
/// (the solver must never prune a feasible path).
#[test]
fn unsat_verdicts_are_sound() {
    let mut rng = Rng::seed_from_u64(0x50_0001);
    let envs = assignments();
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        if is_sat(&f) == Verdict::Unsat {
            for env in &envs {
                assert!(!eval(&f, env), "Unsat but satisfied by {env:?}: {f}");
            }
        }
    }
}

/// If some probe assignment satisfies the formula, the solver must report
/// Sat (completeness over the probe domain).
#[test]
fn probe_sat_implies_solver_sat() {
    let mut rng = Rng::seed_from_u64(0x50_0002);
    let envs = assignments();
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        if envs.iter().any(|env| eval(&f, env)) {
            assert!(
                is_sat(&f).possibly_sat(),
                "probe-satisfiable but solver Unsat: {f}"
            );
        }
    }
}

/// NNF preserves evaluation everywhere.
#[test]
fn nnf_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(0x50_0003);
    let envs = assignments();
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let nnf = f.clone().nnf();
        for env in &envs {
            assert_eq!(eval(&f, env), eval(&nnf, env), "{f} vs {nnf}");
        }
    }
}

/// Negation flips evaluation everywhere.
#[test]
fn negate_flips_semantics() {
    let mut rng = Rng::seed_from_u64(0x50_0004);
    let envs = assignments();
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let neg = f.clone().negate();
        for env in &envs {
            assert_eq!(eval(&f, env), !eval(&neg, env));
        }
    }
}

/// `implies(a, b)` is sound: every probe model of `a` models `b`.
#[test]
fn implication_is_sound() {
    let mut rng = Rng::seed_from_u64(0x50_0005);
    let envs = assignments();
    for _ in 0..CASES {
        let a = gen_formula(&mut rng, 3);
        let b = gen_formula(&mut rng, 3);
        if implies(&a, &b) {
            for env in &envs {
                if eval(&a, env) {
                    assert!(
                        eval(&b, env),
                        "implies({a}, {b}) but {env:?} separates them"
                    );
                }
            }
        }
    }
}

/// `and`/`or` smart constructors match boolean semantics.
#[test]
fn connective_constructors_are_semantic() {
    let mut rng = Rng::seed_from_u64(0x50_0006);
    let envs = assignments();
    for _ in 0..CASES {
        let a = gen_formula(&mut rng, 3);
        let b = gen_formula(&mut rng, 3);
        let conj = a.clone().and(b.clone());
        let disj = a.clone().or(b.clone());
        for env in &envs {
            assert_eq!(eval(&conj, env), eval(&a, env) && eval(&b, env));
            assert_eq!(eval(&disj, env), eval(&a, env) || eval(&b, env));
        }
    }
}

/// `filter_vars` with an always-true predicate is the identity up to
/// evaluation; filtering everything yields a formula implied by the
/// original on its models (over-approximation).
#[test]
fn filter_vars_overapproximates() {
    let mut rng = Rng::seed_from_u64(0x50_0007);
    let envs = assignments();
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let kept = f.clone().filter_vars(&|_| true);
        for env in &envs {
            assert_eq!(eval(&f, env), eval(&kept, env));
        }
        // Dropping all atoms must never turn a satisfiable formula
        // unsatisfiable (sound for conjunctive use).
        let dropped = f.clone().filter_vars(&|_| false);
        if is_sat(&f) == Verdict::Sat {
            assert!(is_sat(&dropped).possibly_sat());
        }
    }
}

/// Mapping variables through a bijection preserves satisfiability.
#[test]
fn var_renaming_preserves_sat() {
    let mut rng = Rng::seed_from_u64(0x50_0008);
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let renamed: Formula<u8> = f.clone().map(&mut |v| v + 100);
        assert_eq!(is_sat(&f), is_sat(&renamed));
    }
}

/// A formula whose top level is often an `And` holding further `And`s —
/// the shapes `Formula::and` flattens.
fn gen_conjunctive(rng: &mut Rng) -> Formula<u8> {
    let n = rng.gen_range(0..4usize);
    let parts: Vec<Formula<u8>> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.3) {
                Formula::And((0..2).map(|_| gen_formula(rng, 1)).collect())
            } else {
                gen_formula(rng, 2)
            }
        })
        .collect();
    match rng.gen_range(0..3usize) {
        0 => parts.into_iter().fold(Formula::True, Formula::and),
        1 => Formula::And(parts),
        _ => gen_formula(rng, 3),
    }
}

/// A cache layered over a shared snapshot behaves like the reference it
/// replaced, a cache over its own copy of the base interner:
/// * the same intern sequence gives the same ids;
/// * a query on `a ∧ b` built on ids (`and` + `is_sat_id`, with `a` and
///   `b` interned first, as detection does) gets the verdict the tree
///   gives and publishes the `solver.interner.nodes` delta the copied
///   interner grows by when it interns only the queried trees;
/// * id-level `and` equals interning `a.and(b)`.
#[test]
fn layered_cache_matches_cache_over_copied_base() {
    let mut rng = Rng::seed_from_u64(0x50_0009);
    for _ in 0..CASES / 4 {
        let base: Vec<Formula<u8>> = (0..4).map(|_| gen_conjunctive(&mut rng)).collect();
        let snap = Arc::new(FormulaSnapshot::build(&base));
        let pick = |rng: &mut Rng| {
            if rng.gen_bool(0.4) {
                base[rng.gen_range(0..base.len())].clone()
            } else {
                gen_conjunctive(rng)
            }
        };
        let pairs: Vec<(Formula<u8>, Formula<u8>)> =
            (0..12).map(|_| (pick(&mut rng), pick(&mut rng))).collect();

        // Same ids for the same intern sequence.
        let mut copied = FormulaInterner::default();
        for f in &base {
            copied.intern(f);
        }
        let mut layered: SolverCache<u8> = SolverCache::with_base(&snap);
        for (a, b) in &pairs {
            for f in [a, b, &a.clone().and(b.clone())] {
                assert_eq!(layered.intern(f), copied.intern(f), "{f}");
            }
        }

        // Same verdicts and node delta for detection-style queries.
        let mut copied = FormulaInterner::default();
        for f in &base {
            copied.intern(f);
        }
        let base_len = copied.len();
        metrics::enable();
        {
            let mut layered: SolverCache<u8> = SolverCache::with_base(&snap);
            for (a, b) in &pairs {
                let joint = a.clone().and(b.clone());
                let (ia, ib) = (layered.intern(a), layered.intern(b));
                let id = layered.and(ia, ib);
                assert_eq!(id, layered.intern(&joint), "{a} && {b}");
                assert_eq!(layered.is_sat_id(id), is_sat(&joint), "{joint}");
                copied.intern(&joint);
            }
        }
        let snapshot = metrics::take();
        assert_eq!(
            snapshot.metrics["solver.interner.nodes"].value,
            MetricValue::Counter((copied.len() - base_len) as u64)
        );
    }
}
