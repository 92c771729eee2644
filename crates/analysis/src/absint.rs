//! Per-thread abstract interpretation of register dataflow.
//!
//! The domain is deliberately small: a register holds either a bounded
//! set of concrete words ([`AbsVal::Vals`]) or ⊤ ([`AbsVal::Top`]).
//! The set is a [`ValSet`]: at most [`CONST_CAP`] distinct words kept
//! sorted in an inline array, so an [`AbsVal`] is `Copy` and joining,
//! copying or comparing register states never allocates. A join or
//! binary operation that would produce more than [`CONST_CAP`] words
//! widens to ⊤.
//! Special registers (`tid`, `bid`, `blockDim`, …) are *concrete* for a
//! given analysis thread, so SPMD role selection (`if me == t`) prunes
//! the CFG and each analysis thread only sees its own role's accesses.
//! Loads and atomic result registers go straight to ⊤: the analyzer
//! never guesses what memory holds.
//!
//! Binary operations are evaluated with [`wmm_sim::exec::eval_bin`] —
//! the simulator's own operational semantics — so the abstraction can
//! only lose precision, never diverge from execution.
//!
//! [`analyze_thread`] keeps every instruction's in-state in one flat
//! `insts × num_regs` array; the transfer function updates a single
//! scratch row in place and yields at most two successors.

use std::fmt;

use wmm_sim::exec::eval_bin;
use wmm_sim::ir::{Inst, Program, SpecialReg};
use wmm_sim::Word;

/// Cap on the size of a concrete value set before widening to ⊤.
pub const CONST_CAP: usize = 16;

/// A set of at most [`CONST_CAP`] distinct words, sorted ascending and
/// stored inline.
#[derive(Clone, Copy)]
pub struct ValSet {
    len: u8,
    words: [Word; CONST_CAP],
}

impl ValSet {
    const EMPTY: ValSet = ValSet {
        len: 0,
        words: [0; CONST_CAP],
    };

    /// The members, ascending.
    pub fn as_slice(&self) -> &[Word] {
        &self.words[..usize::from(self.len)]
    }

    /// Is `v` a member?
    fn contains(&self, v: Word) -> bool {
        self.as_slice().binary_search(&v).is_ok()
    }

    /// Add `v`; false (and unchanged) when `v` is new and the set is
    /// already full.
    fn insert(&mut self, v: Word) -> bool {
        let Err(at) = self.as_slice().binary_search(&v) else {
            return true;
        };
        let len = usize::from(self.len);
        if len == CONST_CAP {
            return false;
        }
        self.words.copy_within(at..len, at + 1);
        self.words[at] = v;
        self.len += 1;
        true
    }

    /// The union, or `None` past [`CONST_CAP`] members.
    fn union(&self, other: &ValSet) -> Option<ValSet> {
        let mut out = *self;
        other
            .as_slice()
            .iter()
            .all(|&v| out.insert(v))
            .then_some(out)
    }

    /// Do the two sets share a member?
    fn intersects(&self, other: &ValSet) -> bool {
        self.as_slice().iter().any(|&v| other.contains(v))
    }
}

impl PartialEq for ValSet {
    fn eq(&self, other: &ValSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValSet {}

impl fmt::Debug for ValSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

/// Abstract value: a bounded set of possible words, or ⊤ (anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Unknown: any word.
    Top,
    /// One of finitely many concrete words.
    Vals(ValSet),
}

impl AbsVal {
    /// The abstract value holding exactly `v`.
    pub fn singleton(v: Word) -> Self {
        let mut s = ValSet::EMPTY;
        s.insert(v);
        AbsVal::Vals(s)
    }

    /// Is this ⊤?
    pub fn is_top(&self) -> bool {
        matches!(self, AbsVal::Top)
    }

    /// The single concrete value, if there is exactly one.
    pub fn as_singleton(&self) -> Option<Word> {
        match self {
            AbsVal::Vals(s) if s.len == 1 => Some(s.words[0]),
            _ => None,
        }
    }

    /// Least upper bound; widens to ⊤ past [`CONST_CAP`] values.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            (AbsVal::Vals(a), AbsVal::Vals(b)) => a.union(b).map_or(AbsVal::Top, AbsVal::Vals),
        }
    }

    /// May the two values denote a common word? ⊤ overlaps everything.
    pub fn overlaps(&self, other: &AbsVal) -> bool {
        match (self, other) {
            (AbsVal::Top, _) | (_, AbsVal::Top) => true,
            (AbsVal::Vals(a), AbsVal::Vals(b)) => a.intersects(b),
        }
    }
}

/// The concrete identity of one analysis thread: its special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Logical thread id within the block.
    pub tid: Word,
    /// Logical block id.
    pub bid: Word,
    /// Threads per block of the launch.
    pub block_dim: Word,
    /// Blocks of the launch.
    pub grid_dim: Word,
}

impl ThreadCtx {
    fn special(&self, sr: SpecialReg) -> Word {
        match sr {
            SpecialReg::Tid => self.tid,
            SpecialReg::Bid => self.bid,
            SpecialReg::BlockDim => self.block_dim,
            SpecialReg::GridDim => self.grid_dim,
            SpecialReg::Lane => self.tid % 32,
            SpecialReg::GlobalTid => self.tid + self.bid * self.block_dim,
        }
    }
}

/// The result of abstractly executing a [`Program`] as one thread.
#[derive(Debug, Clone)]
pub struct ThreadAbs {
    /// Is instruction `i` reachable for this thread?
    pub reachable: Vec<bool>,
    /// For each reachable memory access: the abstract address.
    pub addr_at: Vec<Option<AbsVal>>,
    /// Feasible CFG successors per reachable instruction (pruned by
    /// constant branch conditions), ascending.
    pub succs: Vec<Vec<usize>>,
}

/// Run the worklist fixpoint for one thread. Registers start at zero,
/// matching the simulator.
pub fn analyze_thread(p: &Program, ctx: &ThreadCtx) -> ThreadAbs {
    let n = p.insts.len();
    let nregs = p.num_regs as usize;
    // In-state of instruction `i`: row `i` of `state`, valid once
    // `reachable[i]`.
    let mut state = vec![AbsVal::Top; n * nregs];
    let mut reachable = vec![false; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    if n > 0 {
        state[..nregs].fill(AbsVal::singleton(0));
        reachable[0] = true;
        let mut row = vec![AbsVal::Top; nregs];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            row.copy_from_slice(&state[i * nregs..(i + 1) * nregs]);
            for j in transfer(p, ctx, i, &mut row).into_iter().flatten() {
                if let Err(at) = succs[i].binary_search(&j) {
                    succs[i].insert(at, j);
                }
                if j >= n {
                    continue; // fell off the end: implicit halt
                }
                let cur = &mut state[j * nregs..(j + 1) * nregs];
                let changed = if reachable[j] {
                    join_states(cur, &row)
                } else {
                    reachable[j] = true;
                    cur.copy_from_slice(&row);
                    true
                };
                if changed {
                    work.push(j);
                }
            }
        }
    }
    let addr_at = p
        .insts
        .iter()
        .enumerate()
        .map(|(i, inst)| match inst.addr_reg() {
            Some(r) if reachable[i] => Some(state[i * nregs + r as usize]),
            _ => None,
        })
        .collect();
    ThreadAbs {
        reachable,
        addr_at,
        succs,
    }
}

/// Join `out` into `cur`; true if `cur` grew.
fn join_states(cur: &mut [AbsVal], out: &[AbsVal]) -> bool {
    let mut changed = false;
    for (c, o) in cur.iter_mut().zip(out) {
        let j = c.join(o);
        if j != *c {
            *c = j;
            changed = true;
        }
    }
    changed
}

fn abs_bin(op: wmm_sim::ir::BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    let (AbsVal::Vals(va), AbsVal::Vals(vb)) = (a, b) else {
        return AbsVal::Top;
    };
    let mut out = ValSet::EMPTY;
    for &x in va.as_slice() {
        for &y in vb.as_slice() {
            if !out.insert(eval_bin(op, x, y)) {
                return AbsVal::Top;
            }
        }
    }
    AbsVal::Vals(out)
}

/// Which way can a branch go, given the abstract condition?
fn branch_ways(cond: &AbsVal) -> (bool, bool) {
    // (may be zero, may be nonzero)
    match cond {
        AbsVal::Top => (true, true),
        AbsVal::Vals(s) => (s.contains(0), s.as_slice().iter().any(|&v| v != 0)),
    }
}

/// Step instruction `i` over the register row `st` in place and return
/// its feasible successors (at most two, in worklist push order).
fn transfer(p: &Program, ctx: &ThreadCtx, i: usize, st: &mut [AbsVal]) -> [Option<usize>; 2] {
    let fall = i + 1;
    match &p.insts[i] {
        Inst::Const { dst, value } => st[*dst as usize] = AbsVal::singleton(*value),
        Inst::Mov { dst, src } => st[*dst as usize] = st[*src as usize],
        Inst::Bin { op, dst, a, b } => {
            st[*dst as usize] = abs_bin(*op, &st[*a as usize], &st[*b as usize]);
        }
        Inst::Special { dst, sr } => st[*dst as usize] = AbsVal::singleton(ctx.special(*sr)),
        Inst::Load { dst, .. }
        | Inst::AtomicCas { dst, .. }
        | Inst::AtomicExch { dst, .. }
        | Inst::AtomicAdd { dst, .. } => st[*dst as usize] = AbsVal::Top,
        Inst::Store { .. } | Inst::Fence(_) | Inst::Barrier => {}
        Inst::Jump { target } => return [Some(*target), None],
        Inst::BranchZ { cond, target } => {
            let (zero, nonzero) = branch_ways(&st[*cond as usize]);
            return [nonzero.then_some(fall), zero.then_some(*target)];
        }
        Inst::BranchNZ { cond, target } => {
            let (zero, nonzero) = branch_ways(&st[*cond as usize]);
            return [zero.then_some(fall), nonzero.then_some(*target)];
        }
        Inst::Halt => return [None, None],
    }
    [Some(fall), None]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::ir::{BinOp, Space};
    use wmm_sim::KernelBuilder;

    /// The join of the given words' singletons.
    fn vals(words: impl IntoIterator<Item = Word>) -> AbsVal {
        words
            .into_iter()
            .map(AbsVal::singleton)
            .reduce(|a, b| a.join(&b))
            .expect("at least one word")
    }

    fn ctx(tid: Word) -> ThreadCtx {
        ThreadCtx {
            tid,
            bid: 0,
            block_dim: 64,
            grid_dim: 1,
        }
    }

    #[test]
    fn constant_addresses_resolve_to_singletons() {
        let mut b = KernelBuilder::new("t");
        let a = b.const_(7);
        let v = b.const_(1);
        b.store_global(a, v);
        let p = b.finish().unwrap();
        let abs = analyze_thread(&p, &ctx(0));
        let store = p.memory_access_indices()[0];
        assert_eq!(abs.addr_at[store].as_ref().unwrap().as_singleton(), Some(7));
    }

    #[test]
    fn tid_derived_addresses_are_concrete_per_thread() {
        let mut b = KernelBuilder::new("t");
        let tid = b.tid();
        let base = b.const_(16);
        let addr = b.add(base, tid);
        let v = b.const_(1);
        b.store_shared(addr, v);
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[0];
        for t in [0, 5, 63] {
            let abs = analyze_thread(&p, &ctx(t));
            assert_eq!(
                abs.addr_at[store].as_ref().unwrap().as_singleton(),
                Some(16 + t)
            );
        }
    }

    #[test]
    fn constant_branches_prune_the_other_role() {
        // if tid == 0 { store g[0] } else { store g[1] }
        let mut b = KernelBuilder::new("t");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        let v = b.const_(9);
        b.if_else(
            is0,
            |k| {
                let a = k.const_(0);
                k.store_global(a, v);
            },
            |k| {
                let a = k.const_(1);
                k.store_global(a, v);
            },
        );
        let p = b.finish().unwrap();
        let accesses = p.memory_access_indices();
        assert_eq!(accesses.len(), 2);
        let abs0 = analyze_thread(&p, &ctx(0));
        let abs1 = analyze_thread(&p, &ctx(1));
        // Each thread reaches exactly one of the two stores.
        let reached = |abs: &ThreadAbs| {
            accesses
                .iter()
                .filter(|&&i| abs.reachable[i])
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(reached(&abs0).len(), 1);
        assert_eq!(reached(&abs1).len(), 1);
        assert_ne!(reached(&abs0), reached(&abs1));
    }

    #[test]
    fn loop_counters_widen_to_top() {
        // for i in 0..40 { store g[i] } — 40 > CONST_CAP, so the address
        // must widen to ⊤ rather than enumerate.
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        let start = b.const_(0);
        let end = b.const_(40);
        let v = b.const_(1);
        b.for_range(i, start, end, |k, iv| {
            k.store_in(Space::Global, iv, v);
        });
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[0];
        let abs = analyze_thread(&p, &ctx(0));
        assert!(abs.addr_at[store].as_ref().unwrap().is_top());
    }

    #[test]
    fn loads_produce_top() {
        let mut b = KernelBuilder::new("t");
        let a = b.const_(0);
        let x = b.load_global(a);
        b.store_global(x, x); // address comes from memory: ⊤
        let p = b.finish().unwrap();
        let store = p.memory_access_indices()[1];
        let abs = analyze_thread(&p, &ctx(0));
        assert!(abs.addr_at[store].as_ref().unwrap().is_top());
    }

    #[test]
    fn small_joins_stay_finite() {
        let a = AbsVal::singleton(2).join(&AbsVal::singleton(1));
        let AbsVal::Vals(s) = a else {
            panic!("two values stay finite");
        };
        assert_eq!(s.as_slice(), [1, 2], "members stay sorted");
        assert_eq!(a.join(&a), a);
        assert!(a.overlaps(&AbsVal::singleton(2)));
        assert!(!a.overlaps(&AbsVal::singleton(3)));
        assert!(a.overlaps(&AbsVal::Top));
    }

    #[test]
    fn joins_and_operations_past_the_cap_widen_to_top() {
        let low = vals(0..10);
        assert_eq!(low.join(&vals(5..15)), vals(0..15));
        assert!(!vals(0..16).is_top(), "exactly CONST_CAP values fit");
        assert!(vals(0..17).is_top());
        assert!(
            low.join(&vals(10..20)).is_top(),
            "20 values exceed CONST_CAP"
        );
        let four = vals(0..4);
        let five = vals((0..5).map(|v| v * 100));
        assert!(
            abs_bin(BinOp::Add, &four, &five).is_top(),
            "20 distinct sums"
        );
        assert!(
            !abs_bin(BinOp::Add, &four, &four).is_top(),
            "7 distinct sums"
        );
    }

    #[test]
    fn eval_matches_simulator_for_branch_conditions() {
        let x = AbsVal::singleton(5);
        let y = AbsVal::singleton(5);
        let eq = abs_bin(BinOp::CmpEq, &x, &y);
        assert_eq!(eq.as_singleton(), Some(1));
        let ne = abs_bin(BinOp::CmpNe, &x, &y);
        assert_eq!(ne.as_singleton(), Some(0));
    }
}
